// Helper binary of the perfbench harness (driven by perfbench/run.py).
//
//   requests   builds a serve workload's classify frames from a seed, with
//              each frame's expected cluster from in-process classify and,
//              for a seeded subsample, an exact reference label
//   load       drives a running `cwgl serve` daemon with a slice of those
//              frames: open loop at a fixed rate, or closed loop with a
//              fixed number of requests outstanding
//   spin       keeps every idle CPU busy at the lowest priority until killed
//   agree      labels of a snapshot vs an exact weighted spectral clustering
//              on a seeded uniform subsample of a trace's eligible jobs
//   reference  exact weighted spectral labels of named jobs of a trace
//   replay-fit / replay-characterize / replay-serve
//              the traced run: feeds a workload's inputs through the
//              layers' public entry points in the order the command uses
//              them, untraced and once writing timing spans (name, start,
//              end, parent)
//
// Every subcommand prints one JSON object on stdout and exits nonzero on
// failure. Usage: perfbench_harness <subcommand> --key value ...

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/agreement.hpp"
#include "cluster/spectral.hpp"
#include "core/characterization.hpp"
#include "core/ingest.hpp"
#include "core/job_dag.hpp"
#include "core/pipeline.hpp"
#include "core/shape_store.hpp"
#include "graph/canonical.hpp"
#include "kernel/gram.hpp"
#include "kernel/wl.hpp"
#include "model/fit.hpp"
#include "model/format.hpp"
#include "obs/tracer.hpp"
#include "serve/classifier.hpp"
#include "serve/protocol.hpp"
#include "trace/filter.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace cwgl;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// `--key value` pairs; a key followed by another key (or nothing) is a
/// flag with value "1".
class Options {
 public:
  Options(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::runtime_error("unexpected argument " + key);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";
      }
    }
  }
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  std::uint64_t num(const std::string& key) const {
    return std::stoull(str(key));
  }
  double real(const std::string& key) const { return std::stod(str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

/// Timing spans kept in memory and written out when the replay ends; the
/// parent of a span is the span open when it started.
class Spans {
 public:
  /// A span over the enclosing scope; does nothing when `spans` is null,
  /// which is how a replay runs untraced.
  class Scope {
   public:
    Scope(Spans* spans, std::string name) : spans_(spans) {
      if (spans_ != nullptr) spans_->open(std::move(name), spans_->now());
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->close(spans_->now());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
  };

  Spans() : origin_(Clock::now()) {}

  double now() const { return seconds_since(origin_); }

  void count(const std::string& name, double value) { counts_[name] = value; }

  /// Adds the program's own spans, recorded by obs::Tracer::global() from
  /// `base` (seconds on this clock) on the thread of the first event, under
  /// the span open now. Spans whose names `layers` maps are kept under
  /// their layer's name; the others are dropped, so their time stays with
  /// their parent.
  void import(const std::vector<obs::TraceEvent>& events, double base,
              const std::map<std::string, std::string>& layers) {
    if (events.empty()) return;
    const int tid = events.front().tid;
    std::vector<bool> kept;  // per open program span
    for (const obs::TraceEvent& e : events) {
      if (e.tid != tid) continue;
      const double t = base + 1e-6 * static_cast<double>(e.ts_us);
      if (e.phase == 'B') {
        const auto it = layers.find(e.name);
        kept.push_back(it != layers.end());
        if (kept.back()) open(it->second, t);
      } else if (!kept.empty()) {
        if (kept.back()) close(t);
        kept.pop_back();
      }
    }
  }

  /// {"wall_s", "untraced_wall_s", "spans": [[name, start_s, end_s,
  /// parent], ...], "counts"}.
  void write(std::ostream& out, double wall_s, double untraced_wall_s) const {
    util::JsonWriter j(out);
    j.begin_object();
    j.field("wall_s", wall_s);
    j.field("untraced_wall_s", untraced_wall_s);
    j.key("spans");
    j.begin_array();
    for (const Record& r : records_) {
      j.begin_array();
      j.value(r.name);
      j.value(r.start);
      j.value(r.end);
      j.value(r.parent);
      j.end_array();
    }
    j.end_array();
    j.key("counts");
    j.begin_object();
    for (const auto& [name, value] : counts_) j.field(name, value);
    j.end_object();
    j.end_object();
    out << "\n";
  }

 private:
  struct Record {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long long parent = -1;
  };

  void open(std::string name, double start) {
    const long long parent =
        open_.empty() ? -1 : static_cast<long long>(open_.back());
    records_.push_back({std::move(name), start, 0.0, parent});
    open_.push_back(records_.size() - 1);
  }
  void close(double end) {
    records_[open_.back()].end = end;
    open_.pop_back();
  }

  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
  std::map<std::string, double> counts_;
};

/// Runs `body`. With `spans` set, the program's tracer is armed around it
/// and the spans the program records on this thread are imported under the
/// harness span open now (see Spans::import), so stages inside one entry
/// point are timed by the program's own spans rather than by a copy of it.
template <typename Body>
void with_program_spans(Spans* spans,
                        const std::map<std::string, std::string>& layers,
                        Body&& body) {
  if (spans == nullptr) {
    body();
    return;
  }
  obs::Tracer& tracer = obs::Tracer::global();
  const double base = spans->now();
  tracer.start();
  { obs::Span marker("perfbench.thread"); }  // first event: this thread
  try {
    body();
  } catch (...) {
    tracer.stop();
    throw;
  }
  tracer.stop();
  spans->import(tracer.events(), base, layers);
}

kernel::LabeledGraph labeled(const core::JobDag& job,
                             const core::SimilarityOptions& options) {
  kernel::LabeledGraph g;
  g.graph = job.dag;
  if (options.use_type_labels) g.labels = job.type_labels();
  return g;
}

/// The DAG the daemon builds for a classify frame: rows carrying only the
/// dependency-encoded task names.
std::optional<core::JobDag> job_from_names(
    const std::string& job_name, const std::vector<std::string>& names) {
  std::vector<trace::TaskRecord> rows;
  rows.reserve(names.size());
  for (const std::string& name : names) {
    trace::TaskRecord rec;
    rec.task_name = name;
    rec.job_name = job_name;
    rec.instance_num = 1;
    rows.push_back(std::move(rec));
  }
  return core::build_job_dag(job_name, rows);
}

std::uint64_t file_bytes(const fs::path& path) {
  std::error_code ec;
  const auto bytes = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(bytes);
}

double trace_mib(const fs::path& dir) {
  return static_cast<double>(file_bytes(dir / "batch_task.csv") +
                             file_bytes(dir / "batch_instance.csv")) /
         (1024.0 * 1024.0);
}

/// Exact reference clustering of `jobs`: interned to distinct shapes,
/// featurized with the pipeline's kernel settings, and clustered by the
/// count-weighted exact spectral path — the same partition the exact
/// per-job pipeline computes on these jobs. Returns one label per job and
/// stores the number of distinct shapes in `*distinct` when given.
std::vector<int> exact_labels(const std::vector<core::JobDag>& jobs, int k,
                              std::size_t* distinct = nullptr) {
  core::ShapeStore store;
  std::vector<const core::ShapeStore::Node*> handles;
  handles.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    handles.push_back(store.intern(jobs[i], i));
  }
  core::ShapeStore::FrozenView view = store.freeze_with_ids();
  if (distinct != nullptr) *distinct = view.table.size();
  const core::SimilarityOptions similarity;
  kernel::WlSubtreeFeaturizer featurizer(similarity.wl);
  std::vector<kernel::SparseVector> features;
  features.reserve(view.table.size());
  for (const core::JobDag& exemplar : view.table.exemplars) {
    features.push_back(featurizer.featurize(labeled(exemplar, similarity)));
  }
  kernel::GramOptions gram_options;
  gram_options.normalize = similarity.normalize;
  const linalg::Matrix gram =
      kernel::gram_from_features(features, gram_options);
  const std::vector<double> weights = view.table.weights();
  const int k_eff = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(k), view.table.size()));
  cluster::SpectralOptions spectral;
  spectral.kmeans.seed = core::ClusteringOptions{}.seed;
  const cluster::SpectralResult result =
      cluster::spectral_cluster_weighted(gram, weights, k_eff, spectral);
  std::vector<int> labels;
  labels.reserve(jobs.size());
  for (const core::ShapeStore::Node* node : handles) {
    labels.push_back(result.labels[view.id_of.at(node)]);
  }
  return labels;
}

void write_labels(util::JsonWriter& j, std::string_view key,
                  const std::vector<int>& labels) {
  j.key(key);
  j.begin_array();
  for (int l : labels) j.value(l);
  j.end_array();
}

// ---------------------------------------------------------------------------
// requests

/// Alibaba dependency-encoded task names for a DAG: vertex v is task v+1,
/// followed by its parents ("J4_2_3"); sources are 'M', single-parent tasks
/// 'R', joins 'J'.
std::vector<std::string> task_names(const graph::Digraph& dag) {
  std::vector<std::string> names;
  for (int v = 0; v < dag.num_vertices(); ++v) {
    std::vector<int> preds(dag.predecessors(v).begin(),
                           dag.predecessors(v).end());
    std::sort(preds.begin(), preds.end());
    std::string name(1, preds.empty() ? 'M' : preds.size() == 1 ? 'R' : 'J');
    name += std::to_string(v + 1);
    for (int p : preds) {
      name += '_';
      name += std::to_string(p + 1);
    }
    names.push_back(std::move(name));
  }
  return names;
}

int cmd_requests(const Options& o) {
  const fs::path trace_dir = o.str("trace");
  const std::string kind = o.str("kind");
  const std::size_t count = o.num("count");
  const std::uint64_t seed = o.num("seed");
  const std::size_t sample_within = o.num("sample-within");
  if (kind != "recurring" && kind != "novel") {
    throw std::runtime_error("requests: --kind is recurring or novel");
  }

  // Training shapes: every eligible job of the trace the snapshot was fitted
  // on, interned exactly as the fit interns them.
  core::ShapeTable training;
  {
    std::ifstream csv(trace_dir / "batch_task.csv");
    if (!csv) throw std::runtime_error("requests: no batch_task.csv");
    util::ThreadPool pool(2);
    training = core::stream_shape_jobs(csv, {}, &pool).table;
  }

  std::vector<std::vector<std::string>> frames;
  std::vector<core::JobDag> jobs;
  std::size_t recurring = 0;
  std::size_t distinct = 0;
  if (kind == "recurring") {
    // Same distribution as the training trace, another generator seed.
    core::ShapeStore store;
    std::unordered_set<const core::ShapeStore::Node*> known, seen;
    std::uint64_t seq = 0;
    for (const core::JobDag& exemplar : training.exemplars) {
      known.insert(store.intern(exemplar, seq++));
    }
    trace::GeneratorConfig cfg;
    cfg.seed = util::hash_combine(seed, 0x73657276ULL);  // "serv"
    cfg.num_jobs = 4 * count;
    cfg.emit_instances = false;
    const trace::TraceGenerator generator(cfg);
    for (std::size_t i = 0; jobs.size() < count && i < cfg.num_jobs; ++i) {
      const trace::GeneratedJob g = generator.generate_job(i);
      if (!g.is_dag) continue;
      std::vector<std::string> names;
      for (const trace::TaskRecord& t : g.tasks) names.push_back(t.task_name);
      auto job = job_from_names(g.job_name, names);
      if (!job) continue;
      const auto* node = store.intern(*job, seq++);
      recurring += known.count(node);
      seen.insert(node);
      frames.push_back(std::move(names));
      jobs.push_back(std::move(*job));
    }
    distinct = seen.size();
  } else {
    // Synthesized width profiles, kept only when the canonical hash is new
    // to both the training table and every earlier request. Equal hashes
    // are rejected without an exact isomorphism check, which can take
    // exponential time on wide WL-equivalent DAGs.
    std::unordered_set<std::uint64_t> seen;
    for (const auto& shape : training.shapes) seen.insert(shape.shape_key);
    util::Xoshiro256StarStar rng(util::hash_combine(seed, 0x6e6f76ULL));
    const graph::ShapePattern patterns[] = {
        graph::ShapePattern::StraightChain,
        graph::ShapePattern::InvertedTriangle,
        graph::ShapePattern::Diamond,
        graph::ShapePattern::Hourglass,
        graph::ShapePattern::Trapezium,
        graph::ShapePattern::Combination};
    for (std::size_t attempt = 0; jobs.size() < count && attempt < 100 * count;
         ++attempt) {
      const int n = rng.uniform_int(8, 40);
      const auto pattern = patterns[rng.uniform_int(0, 5)];
      const std::vector<int> widths = trace::synthesize_widths(pattern, n, rng);
      const graph::Digraph dag = trace::synthesize_dag(widths, rng);
      std::vector<std::string> names = task_names(dag);
      const std::string name = "novel_" + std::to_string(jobs.size() + 1);
      auto job = job_from_names(name, names);
      if (!job ||
          !seen.insert(graph::canonical_hash(job->dag, job->type_labels()))
               .second) {
        continue;
      }
      frames.push_back(std::move(names));
      jobs.push_back(std::move(*job));
    }
    distinct = jobs.size();
  }
  if (jobs.size() < count) {
    throw std::runtime_error("requests: could not build enough requests");
  }

  // Expected answers: in-process classify of the same DAG against the same
  // snapshot (Classifier is thread-safe).
  const serve::Classifier classifier(model::load_model(o.str("model")));
  std::vector<int> expected(jobs.size());
  std::vector<std::uint64_t> oov(jobs.size());
  {
    std::vector<std::future<void>> parts;
    const std::size_t threads = 4;
    for (std::size_t t = 0; t < threads; ++t) {
      parts.push_back(std::async(std::launch::async, [&, t] {
        for (std::size_t i = t; i < jobs.size(); i += threads) {
          const serve::Prediction p = classifier.classify(jobs[i]);
          expected[i] = p.cluster;
          oov[i] = p.oov_hits;
        }
      }));
    }
    for (auto& part : parts) part.get();
  }

  // Agreement reference: `--samples` disjoint seeded uniform subsamples of
  // `--sample` requests each, drawn from the first `sample_within`, each
  // clustered on its own by the exact weighted spectral path with as many
  // clusters as the snapshot. A frame outside every subsample has group -1.
  std::vector<int> group(jobs.size(), -1);
  std::vector<int> reference(jobs.size(), -1);
  {
    const std::size_t per_group = o.num("sample");
    const std::size_t groups = o.num("samples");
    util::Xoshiro256StarStar sample_rng(
        util::hash_combine(seed, 0x61677265ULL));  // "agre"
    const std::vector<std::size_t> positions =
        sample_rng.sample_without_replacement(
            std::min(sample_within, jobs.size()), groups * per_group);
    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<std::size_t> members(
          positions.begin() + static_cast<std::ptrdiff_t>(g * per_group),
          positions.begin() + static_cast<std::ptrdiff_t>((g + 1) * per_group));
      std::vector<core::JobDag> sample;
      for (std::size_t p : members) sample.push_back(jobs[p]);
      const std::vector<int> labels = exact_labels(
          sample, static_cast<int>(classifier.model().num_clusters()));
      for (std::size_t i = 0; i < members.size(); ++i) {
        group[members[i]] = static_cast<int>(g);
        reference[members[i]] = labels[i];
      }
    }
  }

  std::ofstream out(o.str("out"), std::ios::binary);
  std::size_t oov_requests = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    serve::Request r;
    r.type = serve::RequestType::Classify;
    r.id = i + 1;
    r.job_name = jobs[i].job_name;
    r.tasks = frames[i];
    out << expected[i] << '\t' << group[i] << '\t' << reference[i] << '\t'
        << serve::encode_request(r) << '\n';
    oov_requests += oov[i] > 0 ? 1 : 0;
  }
  out.close();
  if (!out) throw std::runtime_error("requests: cannot write frames");
  util::JsonWriter j(std::cout);
  j.begin_object();
  j.field("requests", jobs.size());
  j.field("training_shapes", training.size());
  j.field("recurring_share",
          static_cast<double>(recurring) / static_cast<double>(jobs.size()));
  j.field("distinct_shape_ratio",
          static_cast<double>(distinct) / static_cast<double>(jobs.size()));
  j.field("oov_share",
          static_cast<double>(oov_requests) / static_cast<double>(jobs.size()));
  j.end_object();
  std::cout << "\n";
  return 0;
}

/// A line of the frames file: expected cluster (in-process classify of the
/// frame's DAG), agreement subsample (-1 for none), exact reference label
/// and the encoded request, separated by tabs.
struct Frame {
  int expected = 0;
  std::string payload;
};

std::vector<Frame> read_frames(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::vector<Frame> frames;
  std::string line;
  while (std::getline(in, line)) {
    std::size_t tab = line.find('\t');
    for (int field = 1; field < 3 && tab != std::string::npos; ++field) {
      tab = line.find('\t', tab + 1);
    }
    if (tab == std::string::npos) throw std::runtime_error("bad frame line");
    frames.push_back({std::stoi(line), line.substr(tab + 1)});
  }
  return frames;
}

// ---------------------------------------------------------------------------
// load

/// User + system CPU seconds of a process, from /proc/<pid>/stat.
double process_cpu_s(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("no /proc stat");
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);  // utime, stime
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Open loop (--rate): request i is due at start + i / rate regardless of
/// responses; one thread sends, one receives, over one connection. Each
/// request's record keeps its due, send and answer times, so latency is
/// measured from the due time and a stall delays every request scheduled
/// behind it. Closed loop (--window W): a request is sent as soon as fewer
/// than W are unanswered, and its due time is its send time; `wall_s` is the
/// time from the first send to the last answer.
int cmd_load(const Options& o) {
  const std::vector<Frame> all_frames = read_frames(o.str("requests"));
  const std::size_t offset = o.num("offset");
  const std::size_t count = o.num("count");
  if (offset + count > all_frames.size()) {
    throw std::runtime_error("load: fewer frames than --offset + --count");
  }
  const std::vector<Frame> frames(all_frames.begin() + offset,
                                  all_frames.begin() + offset + count);
  const bool closed_loop = o.has("window");
  const std::size_t window = closed_loop ? o.num("window") : 0;
  const double rate = closed_loop ? 0.0 : o.real("rate");
  const long pid = static_cast<long>(o.num("pid"));
  serve::Endpoint ep;
  ep.socket_path = o.str("socket");
  serve::Fd fd = serve::connect_to(ep);

  struct Record {
    std::int64_t due_ns = 0;
    std::int64_t sent_ns = 0;
    std::int64_t answered_ns = -1;
    int status = -1;  // serve::ResponseStatus, -1 = unanswered
    int cluster = -1;
  };
  std::vector<Record> records(count);
  std::atomic<std::size_t> answered{0};
  std::size_t sent = 0;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  Clock::time_point last_answer = start;
  const auto ns_since_start = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - start)
        .count();
  };
  const double period_ns = closed_loop ? 0.0 : 1e9 / rate;
  const double cpu_before = process_cpu_s(pid);

  std::exception_ptr reader_error;
  std::thread reader([&] {
    try {
      std::string payload;
      while (answered.load() < count && serve::read_frame(fd.get(), payload)) {
        const auto now = Clock::now();
        const serve::Response r = serve::decode_response(payload);
        if (r.id <= offset || r.id > offset + count) continue;
        Record& rec = records[r.id - offset - 1];
        rec.answered_ns = ns_since_start(now);
        rec.status = static_cast<int>(r.status);
        rec.cluster = r.cluster_id;
        last_answer = now;
        answered.fetch_add(1);
        answered.notify_one();
      }
    } catch (...) {
      reader_error = std::current_exception();
    }
    answered.store(count + window);  // releases a writer waiting on it
    answered.notify_one();
  });

  // Outstanding (sent, unanswered) requests sampled every 50 ms: a backlog
  // that keeps growing means the rate is beyond what the daemon sustains.
  std::vector<std::size_t> backlog;
  std::int64_t next_sample_ns = 0;
  std::exception_ptr writer_error;
  try {
    for (std::size_t i = 0; i < count; ++i) {
      const auto due =
          start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                      std::llround(static_cast<double>(i) * period_ns)));
      std::this_thread::sleep_until(due);  // returns at once when behind
      if (closed_loop) {
        for (std::size_t done = answered.load(); i >= done + window;
             done = answered.load()) {
          answered.wait(done);
        }
      }
      Record& rec = records[i];
      rec.sent_ns = ns_since_start(Clock::now());
      rec.due_ns = closed_loop ? rec.sent_ns : ns_since_start(due);
      serve::write_frame(fd.get(), frames[i].payload);
      ++sent;
      if (rec.sent_ns >= next_sample_ns) {
        backlog.push_back(i + 1 - std::min(i + 1, answered.load()));
        next_sample_ns += 50'000'000;
      }
    }
  } catch (...) {
    writer_error = std::current_exception();
  }
  // Half-close: the daemon answers what it admitted, then closes, which
  // ends the reader even if answers are missing.
  ::shutdown(fd.get(), SHUT_WR);
  reader.join();
  const double cpu_s = process_cpu_s(pid) - cpu_before;
  const double wall_s = std::chrono::duration<double>(last_answer - start)
                            .count() -
                        1e-9 * static_cast<double>(records[0].sent_ns);
  if (writer_error) std::rethrow_exception(writer_error);
  if (reader_error) std::rethrow_exception(reader_error);

  std::size_t ok = 0, mismatched = 0;
  std::ofstream out(o.str("records"));
  for (std::size_t i = 0; i < count; ++i) {
    const Record& r = records[i];
    const bool is_ok = r.status == static_cast<int>(serve::ResponseStatus::Ok);
    const bool match = is_ok && r.cluster == frames[i].expected;
    ok += is_ok ? 1 : 0;
    mismatched += is_ok && !match ? 1 : 0;
    out << r.due_ns << ' ' << r.sent_ns << ' ' << r.answered_ns << ' '
        << r.status << ' ' << (match ? 1 : 0) << ' ' << r.cluster << '\n';
  }
  out.close();

  util::JsonWriter j(std::cout);
  j.begin_object();
  j.field("sent", sent);
  j.field("ok", ok);
  j.field("mismatched", mismatched);
  j.field("daemon_cpu_s", cpu_s);
  j.field("wall_s", wall_s);
  j.key("backlog");
  j.begin_array();
  for (std::size_t b : backlog) j.value(b);
  j.end_array();
  if (o.has("stats")) {
    // The daemon's own counters and latency histograms, read from outside
    // over a second connection.
    serve::Client client(ep);
    serve::Request req;
    req.type = serve::RequestType::Stats;
    req.id = 1;
    const serve::Response stats = client.call(req);
    j.key("daemon_stats");
    j.begin_object();
    for (const auto& [name, value] : stats.stats) j.field(name, value);
    j.end_object();
    j.key("daemon_metrics");
    j.raw(stats.payload.empty() ? "null" : stats.payload);
  }
  j.end_object();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// spin

/// One SCHED_IDLE busy thread per CPU until the process is killed. A CPU
/// that would otherwise sit idle runs one of them instead of halting, so a
/// virtual CPU is never descheduled by its host while idle and a thread
/// woken on it starts at once; any runnable thread of normal priority
/// preempts the spinners. Under a busy host, waking a halted virtual CPU
/// took milliseconds and made serve latency follow the host's load.
int cmd_spin(const Options& o) {
  // Never outlive the process that started it (--parent), even if that is
  // killed.
  if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 ||
      getppid() != static_cast<pid_t>(o.num("parent"))) {
    return 1;
  }
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < cpus; ++i) {
    threads.emplace_back([] {
      const sched_param lowest{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &lowest);
      for (;;) __builtin_ia32_pause();
    });
  }
  for (std::thread& t : threads) t.join();
  return 0;
}

// ---------------------------------------------------------------------------
// agree / reference

int cmd_agree(const Options& o) {
  const fs::path trace_dir = o.str("trace");
  std::ifstream csv(trace_dir / "batch_task.csv");
  if (!csv) throw std::runtime_error("agree: no batch_task.csv");
  util::ThreadPool pool(2);
  const core::InternedIngest ingest = core::stream_shape_jobs(csv, {}, &pool);
  const std::size_t total = ingest.shape_of.size();
  const std::size_t v = std::min<std::size_t>(o.num("sample"), total);
  util::Xoshiro256StarStar rng(
      util::hash_combine(o.num("seed"), 0x61677265ULL));  // "agre"
  std::vector<std::size_t> positions = rng.sample_without_replacement(total, v);
  std::sort(positions.begin(), positions.end());

  const serve::Classifier classifier(model::load_model(o.str("model")));
  std::unordered_map<std::uint32_t, int> snapshot_label;
  std::vector<int> model_labels;
  std::vector<core::JobDag> sample;
  for (std::size_t p : positions) {
    const std::uint32_t s = ingest.shape_of[p];
    const core::JobDag& exemplar = ingest.table.exemplars[s];
    auto it = snapshot_label.find(s);
    if (it == snapshot_label.end()) {
      it = snapshot_label.emplace(s, classifier.classify(exemplar).cluster)
               .first;
    }
    model_labels.push_back(it->second);
    sample.push_back(exemplar);
  }
  const std::vector<int> reference = exact_labels(
      sample, static_cast<int>(classifier.model().num_clusters()));
  util::JsonWriter j(std::cout);
  j.begin_object();
  j.field("eligible_jobs", total);
  j.field("distinct_shapes", ingest.table.size());
  write_labels(j, "labels", model_labels);
  write_labels(j, "reference", reference);
  j.end_object();
  std::cout << "\n";
  return 0;
}

int cmd_reference(const Options& o) {
  const trace::Trace data = trace::read_trace(o.str("trace"));
  const trace::TraceIndex index(data);
  std::unordered_map<std::string, const trace::JobGroup*> by_name;
  for (const trace::JobGroup& g : index.jobs()) by_name[g.job_name] = &g;
  std::ifstream names(o.str("jobs"));
  std::vector<core::JobDag> jobs;
  std::string name;
  while (std::getline(names, name)) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) throw std::runtime_error("unknown job " + name);
    std::vector<trace::TaskRecord> rows;
    for (std::size_t t : it->second->tasks) rows.push_back(data.tasks[t]);
    auto job = core::build_job_dag(name, rows);
    if (!job) throw std::runtime_error("job is not a DAG: " + name);
    jobs.push_back(std::move(*job));
  }
  std::size_t distinct = 0;
  const std::vector<int> reference =
      exact_labels(jobs, static_cast<int>(o.num("clusters")), &distinct);
  util::JsonWriter j(std::cout);
  j.begin_object();
  j.field("distinct_shapes", distinct);
  write_labels(j, "reference", reference);
  j.end_object();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// traced replays
//
// Each replay runs untraced, traced and untraced again in one process; the
// traced wall time over the mean untraced one is the tracing overhead.

/// Runs `replay(Spans*)` as described above and writes the traced pass's
/// spans with both wall times: averaging the passes before and after it
/// cancels most drift in host speed. Returns whether every pass returned
/// true.
template <typename Replay>
bool run_replay(Replay&& replay) {
  auto t0 = Clock::now();
  bool ok = replay(nullptr);
  double untraced = seconds_since(t0);
  Spans spans;
  ok = replay(&spans) && ok;
  const double traced = spans.now();
  t0 = Clock::now();
  ok = replay(nullptr) && ok;
  untraced = 0.5 * (untraced + seconds_since(t0));
  spans.write(std::cout, traced, untraced);
  return ok;
}

/// Program spans inside `run_full` and the layer each one times.
const std::map<std::string, std::string> kFullTraceLayers = {
    {"ingest.intern", "core.intern"},
    {"pipeline.full_featurize", "kernel.featurize"},
    {"cluster.scale", "cluster.scale"},
    {"pipeline.full_validate", "cluster.validate"},
    {"cluster.eigensolve", "linalg.eigensolve"},
    {"cluster.kmeans", "cluster.kmeans"},
    {"cluster.kmeans_weighted", "cluster.kmeans"}};

/// Program spans inside `spectral_cluster_weighted`.
const std::map<std::string, std::string> kSpectralLayers = {
    {"cluster.eigensolve", "linalg.eigensolve"},
    {"cluster.kmeans_weighted", "cluster.kmeans"}};

/// `cwgl fit --full --trace DIR --out FILE`: the trace is read as the
/// command reads it today; `run_full` then streams the task file through
/// interning, featurization, clustering at scale and validation (timed by
/// the program's own spans); the snapshot is built, saved and reloaded, and
/// every representative is classified against it (the self-check). Returns
/// whether the self-check passed.
bool replay_fit(const fs::path& trace_dir, const fs::path& out, Spans* spans) {
  const core::PipelineConfig cfg;
  {
    Spans::Scope s(spans, "trace.read");
    const trace::Trace data = trace::read_trace(trace_dir);
    if (spans != nullptr) {
      spans->count("trace.rows", static_cast<double>(data.tasks.size() +
                                                     data.instances.size()));
    }
  }
  util::ThreadPool pool;
  core::FittedFeatures fitted;
  core::FullTraceResult result;
  with_program_spans(spans, kFullTraceLayers, [&] {
    std::ifstream csv(trace_dir / "batch_task.csv");
    if (!csv) throw std::runtime_error("replay-fit: no batch_task.csv");
    result = core::CharacterizationPipeline(cfg).run_full(csv, &pool, &fitted);
  });
  model::FittedModel snapshot;
  {
    Spans::Scope s(spans, "model.build");
    snapshot = model::build_model_full(result, std::move(fitted), cfg);
  }
  {
    Spans::Scope s(spans, "model.save");
    model::save_model(snapshot, out);
  }
  model::FittedModel loaded;
  {
    Spans::Scope s(spans, "model.load");
    loaded = model::load_model(out);
  }
  std::size_t agree = 0;
  {
    Spans::Scope s(spans, "model.self_check");
    const serve::Classifier classifier(std::move(loaded));
    for (std::size_t t = 0; t < result.table.size(); ++t) {
      agree += classifier.classify(result.table.exemplars[t]).cluster ==
                       result.shape_labels[t]
                   ? 1
                   : 0;
    }
  }
  if (spans != nullptr) {
    const double jobs = static_cast<double>(result.stats.total_jobs);
    spans->count("trace.mib_parsed", trace_mib(trace_dir));
    spans->count("core.dag_jobs", jobs);
    spans->count("core.distinct_shapes",
                 static_cast<double>(result.stats.distinct_shapes));
    spans->count("core.intern_hit_ratio",
                 static_cast<double>(result.stats.hits) / std::max(1.0, jobs));
    spans->count("graph.iso_probes_per_job",
                 static_cast<double>(result.stats.isomorphism_probes) /
                     std::max(1.0, jobs));
    spans->count("linalg.eigen_n",
                 static_cast<double>(result.agreement.items));
    spans->count("model.bytes", static_cast<double>(file_bytes(out)));
    spans->count("model.representatives",
                 static_cast<double>(snapshot.training_jobs()));
  }
  return agree == result.table.size();
}

int cmd_replay_fit(const Options& o) {
  const fs::path trace_dir = o.str("trace");
  const fs::path out = o.str("out");
  if (!run_replay([&](Spans* spans) {
        return replay_fit(trace_dir, out, spans);
      })) {
    std::cerr << "replay-fit: self-check failed\n";
    return 1;
  }
  return 0;
}

/// `cwgl characterize --trace DIR --sample N --json`: read the trace,
/// census + variability sample, featurize the sampled jobs and build their
/// Gram on a pool, then exact spectral clustering of the jobs (eigensolve
/// and k-means timed by the program's own spans).
void replay_characterize(const fs::path& trace_dir, std::size_t sample_size,
                         Spans* spans) {
  core::PipelineConfig cfg;
  cfg.sample_size = sample_size;
  trace::Trace data;
  {
    Spans::Scope s(spans, "trace.read");
    data = trace::read_trace(trace_dir);
  }
  std::vector<core::JobDag> sample;
  {
    Spans::Scope s(spans, "core.census_sample");
    const core::TraceCensus census = core::TraceCensus::compute(data);
    (void)census;
    sample = core::CharacterizationPipeline(cfg).build_sample(data);
  }
  util::ThreadPool pool;
  const std::size_t n = sample.size();
  std::vector<kernel::SparseVector> features(n);
  {
    Spans::Scope s(spans, "kernel.featurize");
    kernel::WlSubtreeFeaturizer featurizer(cfg.similarity.wl);
    const auto featurize = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        features[i] = featurizer.featurize(labeled(sample[i], cfg.similarity));
      }
    };
    const std::size_t grain = kernel::GramOptions{}.featurize_grain;
    util::parallel_for_chunked(pool, 0, n, grain, featurize);
  }
  linalg::Matrix gram;
  {
    Spans::Scope s(spans, "kernel.gram");
    kernel::GramOptions options;
    options.normalize = cfg.similarity.normalize;
    gram = kernel::gram_from_features(features, options, &pool);
  }
  {
    Spans::Scope s(spans, "cluster.spectral");
    with_program_spans(spans, kSpectralLayers, [&] {
      cluster::SpectralOptions options;
      options.kmeans.seed = cfg.clustering.seed;
      const std::vector<double> weights(n, 1.0);
      cluster::spectral_cluster_weighted(gram, weights,
                                         cfg.clustering.clusters, options);
    });
  }
  if (spans != nullptr) {
    spans->count("trace.rows", static_cast<double>(data.tasks.size() +
                                                   data.instances.size()));
    spans->count("trace.mib_parsed", trace_mib(trace_dir));
    spans->count("kernel.gram_n", static_cast<double>(n));
    spans->count("linalg.eigen_n", static_cast<double>(n));
  }
}

int cmd_replay_characterize(const Options& o) {
  const fs::path trace_dir = o.str("trace");
  const std::size_t sample = o.num("sample");
  run_replay([&](Spans* spans) {
    replay_characterize(trace_dir, sample, spans);
    return true;
  });
  return 0;
}

/// The daemon's work for one classify frame, in process: decode the frame,
/// build the DAG, classify it, encode the answer. Returns the cluster.
int serve_frame(const serve::Classifier& classifier, const std::string& payload,
                Spans* spans) {
  serve::Request req;
  {
    Spans::Scope s(spans, "serve.decode");
    req = serve::decode_request(payload);
  }
  std::optional<core::JobDag> job;
  {
    Spans::Scope s(spans, "core.build_dag");
    job = job_from_names(req.job_name, req.tasks);
  }
  if (!job) throw std::runtime_error("replay-serve: frame is not a DAG");
  serve::Prediction p;
  {
    Spans::Scope s(spans, "serve.classify");
    p = classifier.classify(*job);
  }
  serve::Response r;
  r.id = req.id;
  r.cluster = std::string(1, p.cluster_letter);
  r.cluster_id = p.cluster;
  r.similarity = p.similarity;
  r.nearest = p.nearest_job;
  r.oov_hits = p.oov_hits;
  r.predicted_critical_path = p.predicted_critical_path;
  r.predicted_width = p.predicted_width;
  std::string bytes;
  {
    Spans::Scope s(spans, "serve.encode");
    bytes = serve::encode_response(r);
  }
  return p.cluster;
}

/// Loads the snapshot, builds the classifier and serves every frame on one
/// thread; returns whether every answer is the expected one.
bool replay_serve(const fs::path& model_path,
                         const std::vector<Frame>& frames, Spans* spans) {
  model::FittedModel loaded;
  {
    Spans::Scope s(spans, "model.load");
    loaded = model::load_model(model_path);
  }
  std::optional<serve::Classifier> classifier;
  {
    Spans::Scope s(spans, "serve.classifier_build");
    classifier.emplace(std::move(loaded));
  }
  std::size_t mismatched = 0;
  for (const Frame& f : frames) {
    mismatched += serve_frame(*classifier, f.payload, spans) != f.expected;
  }
  return mismatched == 0;
}

/// Replays every frame after a warm-up over an eighth of them.
int cmd_replay_serve(const Options& o) {
  const std::vector<Frame> frames = read_frames(o.str("requests"));
  const fs::path model_path = o.str("model");
  {
    const serve::Classifier warm(model::load_model(model_path));
    for (std::size_t i = 0; i < frames.size() / 8; ++i) {
      serve_frame(warm, frames[i].payload, nullptr);
    }
  }
  if (!run_replay([&](Spans* spans) {
        return replay_serve(model_path, frames, spans);
      })) {
    std::cerr << "replay-serve: answers differ from the expected clusters\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness <subcommand> --key value ...\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Options o(argc, argv);
    if (command == "requests") return cmd_requests(o);
    if (command == "load") return cmd_load(o);
    if (command == "spin") return cmd_spin(o);
    if (command == "agree") return cmd_agree(o);
    if (command == "reference") return cmd_reference(o);
    if (command == "replay-fit") return cmd_replay_fit(o);
    if (command == "replay-characterize") return cmd_replay_characterize(o);
    if (command == "replay-serve") return cmd_replay_serve(o);
    std::cerr << "unknown subcommand " << command << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << command << ": " << e.what() << "\n";
    return 1;
  }
}
