// perfbench_worker: the compiled half of the benchmark (perfbench/run.py is
// the other half).  Two subcommands:
//
//   perfbench_worker train --corpus=dense|sparse --seed=S --ckpt=model.ckpt
//       [--spans=spans.bin]
//     Generates the seeded corpus, splits it and constructs the model three
//     times (set-up), saves the serving checkpoint, then obeys one command
//     per stdin line: "rep" runs core::Vsan::Fit over a fixed step count and
//     eval::EvaluateRanking, timing each public call with steady_clock;
//     "trace" does the same inside an obs::Tracer session, recording its
//     own spans around each call and dumping every span to --spans (folded
//     by perfbench/stats.py); "quit" reports the run's counters.  Every
//     answer is one JSON line on stdout.  Staying alive between commands
//     lets run.py interleave training with the serve windows.
//
//   perfbench_worker loadgen --port=P --schedule=file --out=result.json
//       --ckpt=model.ckpt
//     Open-loop generator: sends each scheduled request when it falls due,
//     from kConnections sender threads (so at most that many connections
//     are in flight), and times it from its due time.  After the window it checks every response the schedule marks
//     for verification against the offline oracle (Vsan::Load + ScoreInto,
//     seen-item exclusion, (score desc, index asc) top-k), bitwise on item
//     ids and scores.
//
// Statistics (medians, percentiles, goodput) are computed in Python from the
// raw samples written here, so one tested implementation serves every
// workload.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/vsan.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/pool.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace vsan {
namespace {

using Clock = std::chrono::steady_clock;

// Load generator threads, each with at most one connection in flight: the
// host's core count (4) on the machines the benchmark was sized for.
constexpr int kConnections = 4;
// Tracer ring per thread: a traced Fit + eval records ~250k spans in all,
// so no thread wraps (a dropped span fails the run).
constexpr int64_t kSpanCapacity = 1 << 20;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int Fail(const std::string& message) {
  std::cerr << "perfbench_worker: " << message << "\n";
  return 1;
}

// Minimal JSON writer for flat objects of numbers, strings and number
// arrays: the only shapes the result files need.
class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Key(key);
    body_ += std::isfinite(v) ? buf : "null";
  }
  void Arr(const std::string& key, const std::vector<double>& values) {
    Key(key);
    body_ += "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
      if (i > 0) body_ += ",";
      body_ += buf;
    }
    body_ += "]";
  }
  std::string Line() const { return "{" + body_ + "}\n"; }
  bool WriteTo(const std::string& path) const {
    std::ofstream out(path);
    out << Line();
    return static_cast<bool>(out);
  }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":";
  }
  std::string body_;
};

// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// train

struct CorpusSpec {
  data::SyntheticConfig synth;
  core::VsanConfig model;
  int64_t steps = 0;  // optimizer steps per Fit (one epoch of full batches)
  int64_t batch_size = 128;
  int32_t test_users = 0;
  // Above the paper's 1e-3 so a few steps already learn popularity and
  // NDCG@10 is far from zero.
  float learning_rate = 5e-3f;
};

// dense: ML1M-like long histories (mean ~95) over a ~880-item catalog at
// n=100 -- attention-bound.  sparse: Beauty-like short histories (5-13) over
// the full 12,069-item catalog at the paper's n=50 -- output-head-bound.
// The user count is steps * batch_size + test_users, so every Fit runs
// exactly `steps` full batches.
bool MakeSpec(const std::string& corpus, uint64_t seed, CorpusSpec* spec) {
  if (corpus == "dense") {
    spec->synth = data::ML1MLikeConfig(0.25);
    spec->model.max_len = 100;
    spec->steps = 4;
    spec->test_users = 768;
  } else if (corpus == "sparse") {
    spec->synth = data::BeautyLikeConfig(1.0);
    spec->model.max_len = 50;
    spec->steps = 4;
    spec->test_users = 512;
  } else {
    return false;
  }
  spec->model.d = 64;
  spec->synth.num_users =
      static_cast<int32_t>(spec->steps * spec->batch_size) + spec->test_users;
  spec->synth.seed = seed;
  return true;
}

struct Prepared {
  data::StrongSplit split;
  std::unique_ptr<core::Vsan> model;
};

Prepared Setup(const CorpusSpec& spec, uint64_t seed) {
  Prepared p;
  const data::SequenceDataset corpus = data::GenerateSynthetic(spec.synth);
  data::SplitOptions split_options;
  split_options.num_test_users = spec.test_users;
  split_options.seed = seed + 1;
  p.split = data::MakeStrongSplit(corpus, split_options);
  p.model = std::make_unique<core::Vsan>(spec.model);
  return p;
}

// Counters the output checks read; all deltas over the measured window.
struct TrainCounters {
  int64_t steps = 0;
  int64_t nonfinite_loss = 0;
  int64_t nonfinite_grad = 0;
  int64_t rollbacks = 0;
  static TrainCounters Read() {
    obs::MetricsRegistry& m = obs::MetricsRegistry::Global();
    TrainCounters c;
    c.steps = m.GetCounter("train.steps")->value();
    c.nonfinite_loss = m.GetCounter("fault.nonfinite_loss")->value();
    c.nonfinite_grad = m.GetCounter("fault.nonfinite_grad")->value();
    c.rollbacks = m.GetCounter("fault.rollbacks")->value();
    return c;
  }
};

struct FitEvalSample {
  double fit_s = 0.0;
  double eval_s = 0.0;
  double ndcg10 = 0.0;
  bool loss_finite = true;
};

// Spans this program records around its own calls into the library.
const char kSpanFit[] = "bench/fit";
const char kSpanEval[] = "bench/evaluate";

FitEvalSample FitAndEvaluate(const CorpusSpec& spec, uint64_t seed,
                             Prepared* p, bool evaluate = true) {
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = spec.batch_size;
  options.learning_rate = spec.learning_rate;
  options.seed = seed + 2;
  FitEvalSample sample;
  options.epoch_callback = [&sample](const EpochStats& stats) {
    if (!std::isfinite(stats.loss)) sample.loss_finite = false;
  };
  eval::EvalOptions eval_options;
  eval_options.cutoffs = {10};

  obs::Tracer& tracer = obs::Tracer::Global();
  const int64_t fit_ns = tracer.NowNs();
  Clock::time_point start = Clock::now();
  p->model->Fit(p->split.train, options);
  sample.fit_s = SecondsSince(start);
  tracer.RecordSpan(kSpanFit, obs::SpanCategory::kOther, fit_ns,
                    tracer.NowNs() - fit_ns);
  if (!evaluate) return sample;

  const int64_t eval_ns = tracer.NowNs();
  start = Clock::now();
  const eval::EvalResult result =
      eval::EvaluateRanking(*p->model, p->split.test, eval_options);
  sample.eval_s = SecondsSince(start);
  tracer.RecordSpan(kSpanEval, obs::SpanCategory::kOther, eval_ns,
                    tracer.NowNs() - eval_ns);
  sample.ndcg10 = result.ndcg.at(10);
  return sample;
}

// Binary span dump read by perfbench/stats.py:
//   "PBSPANS1" u32 num_names { u16 len, bytes } u64 num_events
//   { u16 name, u16 category, u32 tid, i64 start_ns, i64 dur_ns }
bool DumpSpans(const std::vector<obs::SpanEvent>& events,
               const std::string& path) {
  std::map<std::string, uint16_t> ids;
  std::vector<std::string> names;
  for (const obs::SpanEvent& e : events) {
    if (ids.emplace(e.name, static_cast<uint16_t>(names.size())).second) {
      names.emplace_back(e.name);
    }
  }
  std::ofstream out(path, std::ios::binary);
  auto put = [&out](const void* p, size_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  };
  put("PBSPANS1", 8);
  const uint32_t num_names = static_cast<uint32_t>(names.size());
  put(&num_names, 4);
  for (const std::string& name : names) {
    const uint16_t len = static_cast<uint16_t>(name.size());
    put(&len, 2);
    put(name.data(), name.size());
  }
  const uint64_t num_events = events.size();
  put(&num_events, 8);
  for (const obs::SpanEvent& e : events) {
    const uint16_t name = ids[e.name];
    const uint16_t category = static_cast<uint16_t>(e.category);
    put(&name, 2);
    put(&category, 2);
    put(&e.tid, 4);
    put(&e.start_ns, 8);
    put(&e.dur_ns, 8);
  }
  return static_cast<bool>(out);
}

// One JSON object per line on stdout: the protocol run.py reads.
void EmitLine(const JsonOut& json) { std::cout << json.Line() << std::flush; }

int RunTrain(const FlagParser& flags) {
  const std::string corpus = flags.GetString("corpus", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string ckpt_path = flags.GetString("ckpt", "");
  const std::string spans_path = flags.GetString("spans", "");
  CorpusSpec spec;
  CorpusSpec serve_spec;
  if (!MakeSpec(corpus, seed, &spec) || !MakeSpec("sparse", seed, &serve_spec)) {
    return Fail("--corpus must be dense|sparse");
  }
  if (ckpt_path.empty()) return Fail("--ckpt is required");

  // Set-up: corpus generation, split, model construction -- repeated so the
  // reported figure is a median; the last one is kept.
  std::vector<double> setup_s;
  Prepared prepared;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point start = Clock::now();
    prepared = Setup(spec, seed);
    setup_s.push_back(SecondsSince(start));
  }
  // Untimed: the serving checkpoint is always the Beauty-like model (the
  // full 12,069-item catalog at n=50), whatever corpus is being timed.
  {
    Prepared serving = Setup(serve_spec, seed);
    FitAndEvaluate(serve_spec, seed, &serving, /*evaluate=*/false);
    const Status saved = serving.model->Save(ckpt_path);
    if (!saved.ok()) return Fail("checkpoint save: " + saved.ToString());
  }
  JsonOut ready;
  ready.Arr("setup_s", setup_s);
  ready.Num("threads", ThreadPool::Global()->num_threads());
  ready.Num("steps_per_fit", static_cast<double>(spec.steps));
  ready.Num("batch_size", static_cast<double>(spec.batch_size));
  ready.Num("test_users", static_cast<double>(prepared.split.test.size()));
  ready.Num("serve_num_items", serve_spec.synth.num_items);
  EmitLine(ready);

  // Commands, one per line: "rep" runs one timed Fit + eval, "trace" the
  // same inside a tracer session, "quit" reports the run's counters.
  const TrainCounters before = TrainCounters::Read();
  int64_t fits = 0;
  std::string command;
  while (std::getline(std::cin, command)) {
    if (command == "quit") break;
    if (command != "rep" && command != "trace") {
      return Fail("unknown command " + command);
    }
    const bool traced = command == "trace";
    JsonOut json;
    obs::Tracer& tracer = obs::Tracer::Global();
    const pool::PoolStats pool_before = pool::GetStats();
    if (traced) {
      obs::TracerOptions tracer_options;
      tracer_options.buffer_capacity = kSpanCapacity;
      tracer.StartSession(tracer_options);
    }
    const FitEvalSample sample = FitAndEvaluate(spec, seed, &prepared);
    ++fits;
    if (traced) {
      tracer.StopSession();
      const pool::PoolStats pool_after = pool::GetStats();
      const std::vector<obs::SpanEvent> events = tracer.Collect();
      if (spans_path.empty() || !DumpSpans(events, spans_path)) {
        return Fail("cannot write spans to '" + spans_path + "'");
      }
      json.Num("spans", static_cast<double>(events.size()));
      json.Num("dropped_spans", static_cast<double>(tracer.DroppedEvents()));
      json.Num("pool_hits",
               static_cast<double>(pool_after.hits - pool_before.hits));
      json.Num("pool_misses",
               static_cast<double>(pool_after.misses - pool_before.misses));
      json.Num("pool_cached_bytes",
               static_cast<double>(pool_after.bytes_cached));
    }
    json.Num("fit_s", sample.fit_s);
    json.Num("eval_s", sample.eval_s);
    json.Num("ndcg10", sample.ndcg10);
    json.Num("loss_finite", sample.loss_finite ? 1 : 0);
    EmitLine(json);
  }

  const TrainCounters after = TrainCounters::Read();
  JsonOut done;
  done.Num("steps_attempted", static_cast<double>(fits * spec.steps));
  done.Num("steps_completed", static_cast<double>(after.steps - before.steps));
  done.Num("nonfinite",
           static_cast<double>(after.nonfinite_loss - before.nonfinite_loss +
                               after.nonfinite_grad - before.nonfinite_grad +
                               after.rollbacks - before.rollbacks));
  done.Num("peak_rss_mb", PeakRssMb());
  EmitLine(done);
  return 0;
}

// ---------------------------------------------------------------------------
// loadgen

struct ScheduledRequest {
  int64_t due_us = 0;
  bool reload = false;
  bool verify = false;
  std::vector<int32_t> history;  // recommend requests only
  int32_t k = 10;
  std::string body;
};

struct Outcome {
  int64_t sent_us = -1;
  int64_t done_us = -1;
  int status = 0;  // 0 = no HTTP answer (transport failure)
  std::string body;
};

// Schedule lines (written by perfbench/schedule.py):
//   rec <due_us> <verify 0|1> <k> <json body>
//   reload <due_us>
// The history is re-read from the JSON body's "history" array so the
// oracle checks exactly what was sent.
bool ParseHistory(const std::string& body, std::vector<int32_t>* history) {
  const size_t key = body.find("\"history\"");
  if (key == std::string::npos) return false;
  const size_t open = body.find('[', key);
  const size_t close = body.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return false;
  std::stringstream items(body.substr(open + 1, close - open - 1));
  std::string token;
  while (std::getline(items, token, ',')) {
    history->push_back(static_cast<int32_t>(std::stol(token)));
  }
  return true;
}

bool ReadSchedule(const std::string& path,
                  std::vector<ScheduledRequest>* requests) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    ScheduledRequest r;
    fields >> kind >> r.due_us;
    if (kind == "reload") {
      r.reload = true;
    } else if (kind == "rec") {
      int verify = 0;
      fields >> verify >> r.k;
      r.verify = verify != 0;
      fields.get();  // the single space before the body
      std::getline(fields, r.body);
      if (!ParseHistory(r.body, &r.history)) return false;
    } else {
      return false;
    }
    requests->push_back(std::move(r));
  }
  return true;
}

// Parses the daemon's {"item": i, "score": s} list (scores are %.9g, which
// round-trips fp32 exactly).
bool ParseItems(const std::string& body, std::vector<int32_t>* items,
                std::vector<float>* scores) {
  size_t pos = body.find("\"items\"");
  if (pos == std::string::npos) return false;
  while ((pos = body.find("\"item\":", pos)) != std::string::npos) {
    pos += 7;
    items->push_back(static_cast<int32_t>(std::strtol(body.c_str() + pos, nullptr, 10)));
    const size_t s = body.find("\"score\":", pos);
    if (s == std::string::npos) return false;
    scores->push_back(std::strtof(body.c_str() + s + 8, nullptr));
    pos = s;
  }
  return true;
}

// The offline oracle: full scores, seen items excluded, (score desc, index
// asc) order, top k.
bool MatchesOracle(const core::Vsan& model, const ScheduledRequest& r,
                   const std::string& body) {
  std::vector<int32_t> items;
  std::vector<float> scores;
  if (!ParseItems(body, &items, &scores)) return false;
  std::vector<float> full;
  model.ScoreInto(r.history, &full);
  const std::unordered_set<int32_t> seen(r.history.begin(), r.history.end());
  std::vector<int32_t> order;
  for (int32_t i = 1; i < static_cast<int32_t>(full.size()); ++i) {
    if (seen.count(i) == 0) order.push_back(i);
  }
  const size_t k = std::min<size_t>(static_cast<size_t>(r.k), order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<int64_t>(k),
                    order.end(), [&full](int32_t a, int32_t b) {
                      if (full[a] != full[b]) return full[a] > full[b];
                      return a < b;
                    });
  if (items.size() != k) return false;
  for (size_t j = 0; j < k; ++j) {
    if (items[j] != order[j]) return false;
    const float want = full[order[j]];
    if (std::memcmp(&scores[j], &want, sizeof(float)) != 0) return false;
  }
  return true;
}

int RunLoadgen(const FlagParser& flags) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const std::string schedule_path = flags.GetString("schedule", "");
  const std::string out_path = flags.GetString("out", "");
  const std::string ckpt_path = flags.GetString("ckpt", "");
  if (port <= 0 || schedule_path.empty() || out_path.empty() ||
      ckpt_path.empty()) {
    return Fail("loadgen needs --port, --schedule, --out and --ckpt");
  }
  std::vector<ScheduledRequest> requests;
  if (!ReadSchedule(schedule_path, &requests) || requests.empty()) {
    return Fail("bad schedule " + schedule_path);
  }
  std::vector<Outcome> outcomes(requests.size());

  // Open loop: request i goes out at start + due_us no matter how earlier
  // ones fared; when all senders are busy it waits, and that wait is the
  // generator lag (sent - due), part of the latency measured from due.
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto micros = [start](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - start)
        .count();
  };
  auto sender = [&]() {
    for (size_t i = next.fetch_add(1); i < requests.size();
         i = next.fetch_add(1)) {
      const ScheduledRequest& r = requests[i];
      std::this_thread::sleep_until(start + std::chrono::microseconds(r.due_us));
      Outcome& o = outcomes[i];
      o.sent_us = micros(Clock::now());
      const bool answered =
          r.reload ? obs::HttpPost("127.0.0.1", port, "/reload", "",
                                   "application/json", &o.status, &o.body)
                   : obs::HttpPost("127.0.0.1", port, "/recommend", r.body,
                                   "application/json", &o.status, &o.body);
      o.done_us = micros(Clock::now());
      if (!answered) o.status = 0;
      if (!r.verify) o.body.clear();
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) threads.emplace_back(sender);
  for (std::thread& t : threads) t.join();

  // Oracle pass, after the timed window.
  auto loaded = core::Vsan::Load(ckpt_path);
  if (!loaded.ok()) return Fail("oracle load: " + loaded.status().ToString());
  const std::unique_ptr<core::Vsan> model = std::move(loaded).value();
  int64_t verified = 0;
  int64_t mismatches = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].verify || outcomes[i].status != 200) continue;
    ++verified;
    if (!MatchesOracle(*model, requests[i], outcomes[i].body)) ++mismatches;
  }

  std::vector<double> due, sent, done, status, reload;
  for (size_t i = 0; i < requests.size(); ++i) {
    due.push_back(static_cast<double>(requests[i].due_us));
    sent.push_back(static_cast<double>(outcomes[i].sent_us));
    done.push_back(static_cast<double>(outcomes[i].done_us));
    status.push_back(outcomes[i].status);
    reload.push_back(requests[i].reload ? 1 : 0);
  }
  JsonOut json;
  json.Arr("due_us", due);
  json.Arr("sent_us", sent);
  json.Arr("done_us", done);
  json.Arr("status", status);
  json.Arr("reload", reload);
  json.Num("verified", static_cast<double>(verified));
  json.Num("mismatches", static_cast<double>(mismatches));
  if (!json.WriteTo(out_path)) return Fail("cannot write " + out_path);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Fail("usage: perfbench_worker train|loadgen [--flags]");
  const std::string command = argv[1];
  FlagParser flags(argc - 1, argv + 1);
  if (command == "train") return RunTrain(flags);
  if (command == "loadgen") return RunLoadgen(flags);
  return Fail("unknown subcommand " + command);
}

}  // namespace
}  // namespace vsan

int main(int argc, char** argv) { return vsan::Main(argc, argv); }
