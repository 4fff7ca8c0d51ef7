// `serve-rw`: open loop against the daemon over its loopback TCP line
// protocol (Server::ServePort, as `relmax serve --port` runs it), one
// connection, on as_topology --scale 0.1 (directed, 900 nodes) with the
// indexed engine, Z=2000, 2 lanes of 1 engine thread. Poisson reads at
// 100/s with Zipf(0.8) sources share work and hit the result cache; an
// `update` on a random existing edge about once a second drives publish,
// lane replay, bank resample and incremental relabel. Loads every layer
// from sampling up to serve; never touches core or paths.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common/memory.h"
#include "gen/datasets.h"
#include "index/reliability_index.h"
#include "query/query_engine.h"
#include "sampling/world_view.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using relmax::NodeId;

constexpr int kSamples = 2000;
constexpr int kLanes = 2;
constexpr double kReadQps = 100.0;
constexpr double kUpdatesPerS = 1.0;
constexpr double kTheta = 0.8;
// Gap between warm-up probes: longer than the daemon's 2 ms window, so each
// probe is its own window, and shorter than a cold lane's bank fill, so a
// lane busy warming leaves the next probe to an idle lane.
constexpr auto kWarmGap = std::chrono::milliseconds(10);
constexpr double kWarmMs = 50.0;
// Read percentiles are taken per 10 s segment of the schedule (1000 reads,
// so p99 has ten reads beyond it) and the median segment is reported: a
// burst of CPU steal from the host moves one segment, not the result.
constexpr double kSegmentSeconds = 10.0;
// How long after the schedule ends the run waits for the last responses.
constexpr auto kDrainGrace = std::chrono::seconds(30);

relmax::serve::ServeOptions Options() {
  relmax::serve::ServeOptions options;
  options.engine.num_samples = kSamples;
  options.engine.num_threads = 1;
  options.engine.use_index = true;
  options.lanes = kLanes;
  return options;
}

struct Response {
  std::string text;
  Clock::time_point at;
};

// One loopback connection. A dedicated reader thread drains and timestamps
// response lines as they arrive, so the daemon's sequencer never blocks a
// lane on a full socket buffer.
class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    RELMAX_CHECK(fd_ >= 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    RELMAX_CHECK(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0);
    reader_ = std::thread([this] { ReadLoop(); });
  }

  ~Client() {
    ::shutdown(fd_, SHUT_RDWR);
    reader_.join();
    ::close(fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line; returns the time it was handed to the socket.
  Clock::time_point Send(const std::string& line) {
    const Clock::time_point at = Clock::now();
    const std::string data = line + "\n";
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      RELMAX_CHECK(n > 0);
      sent += static_cast<size_t>(n);
    }
    return at;
  }

  /// Next response in request order, or false at `deadline` / end of stream.
  bool Next(Response* out, Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [this] { return !lines_.empty() || eof_; });
    if (lines_.empty()) return false;
    *out = std::move(lines_.front());
    lines_.pop_front();
    return true;
  }

  size_t received() const { return received_.load(); }

 private:
  void ReadLoop() {
    std::string partial;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      const Clock::time_point at = Clock::now();
      partial.append(buf, static_cast<size_t>(n));
      size_t pos;
      while ((pos = partial.find('\n')) != std::string::npos) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          lines_.push_back({partial.substr(0, pos), at});
        }
        received_.fetch_add(1);
        partial.erase(0, pos + 1);
        cv_.notify_all();
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    eof_ = true;
    cv_.notify_all();
  }

  int fd_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Response> lines_;  // guarded by mu_
  bool eof_ = false;            // guarded by mu_
  std::atomic<size_t> received_{0};
  std::thread reader_;  // last: it uses every member above
};

// The daemon on an ephemeral loopback port, plus one client connection.
class Daemon {
 public:
  explicit Daemon(const relmax::UncertainGraph& g) : server_(g, Options()) {
    std::future<uint16_t> port = bound_.get_future();
    thread_ = std::thread([this] {
      bool told = false;
      status_ = server_.ServePort(0, [&](uint16_t p) {
        told = true;
        bound_.set_value(p);
      });
      if (!told) bound_.set_value(0);
    });
    const uint16_t p = port.get();
    if (p == 0) {
      thread_.join();
      std::fprintf(stderr, "serve-rw: %s\n", status_.ToString().c_str());
      std::exit(1);
    }
    client_ = std::make_unique<Client>(p);
  }

  ~Daemon() {
    client_->Send("shutdown");
    Response r;
    while (client_->Next(&r, Clock::now() + kDrainGrace) &&
           r.text != "OK bye") {
    }
    client_.reset();
    thread_.join();
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Client& client() { return *client_; }
  relmax::serve::ServeCore& core() { return server_.core(); }

 private:
  relmax::serve::Server server_;
  relmax::Status status_ = relmax::Status::Ok();
  std::promise<uint16_t> bound_;  // the listener's port; 0 if it failed
  std::unique_ptr<Client> client_;
  std::thread thread_;
};

// Sends rounds of kLanes probe queries, kWarmGap apart, until a round after
// the first answers every probe within kWarmMs: by then every lane has
// filled its bank and built its labels. `send` submits one query and returns
// when it went out; `wait` returns when the next answer (in order) came.
template <typename SendFn, typename WaitFn>
void WarmLanes(SendFn send, WaitFn wait) {
  NodeId next = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<Clock::time_point> sent;
    for (int i = 0; i < kLanes; ++i) {
      if (i) std::this_thread::sleep_for(kWarmGap);
      sent.push_back(send(next, next + 1));
      next += 2;
    }
    double worst = 0.0;
    for (const Clock::time_point at : sent) {
      worst = std::max(worst, MsBetween(at, wait()));
    }
    if (round > 0 && worst < kWarmMs) return;
  }
}

void WarmDaemon(Daemon& daemon) {
  WarmLanes(
      [&](NodeId s, NodeId t) {
        return daemon.client().Send("query " + std::to_string(s) + " " +
                                    std::to_string(t));
      },
      [&] {
        Response r;
        RELMAX_CHECK(daemon.client().Next(&r, Clock::now() + kDrainGrace));
        return r.at;
      });
}

struct ServeInputs {
  relmax::UncertainGraph graph = relmax::UncertainGraph::Directed(0);
  std::vector<Event> schedule;
  std::unique_ptr<Daemon> daemon;
  double rss_per_lane_mb = 0.0;
};

void SetUp(const RunConfig& config, ServeInputs* in) {
  auto dataset = relmax::MakeDataset("as_topology", 0.1);
  RELMAX_CHECK(dataset.ok());
  in->graph = std::move(dataset->graph);
  in->schedule = MakeServeSchedule(in->graph, config.seconds, kReadQps,
                                   kUpdatesPerS, kTheta, config.seed);
  const size_t rss_before = relmax::CurrentRssBytes();
  in->daemon = std::make_unique<Daemon>(in->graph);
  WarmDaemon(*in->daemon);
  in->rss_per_lane_mb =
      (static_cast<double>(relmax::CurrentRssBytes()) -
       static_cast<double>(rss_before)) / (1024.0 * 1024.0) / kLanes;
}

// What one open-loop pass over the schedule observed.
struct Outcome {
  LatencyLog reads;
  std::vector<LatencyLog> segments;  // the reads again, by kSegmentSeconds
  std::vector<double> visible_ms;  // per update, to its first later read
  std::vector<double> late_ms;     // generator lateness per request
  size_t outstanding_at_end = 0;
  size_t failed_updates = 0;
  std::vector<Response> responses;  // parallel to the schedule
  std::vector<bool> answered;       // parallel to the schedule
};

// Turns per-request send / completion times into the latency records.
void Account(const std::vector<Event>& schedule,
             const std::vector<Clock::time_point>& due,
             const std::vector<Clock::time_point>& sent, Outcome* out) {
  const double end = schedule.empty() ? 0.0 : schedule.back().at_s;
  out->segments.resize(std::max<size_t>(
      1, static_cast<size_t>(end / kSegmentSeconds + 0.5)));
  for (size_t i = 0; i < schedule.size(); ++i) {
    LatencyLog& segment = out->segments[std::min(
        out->segments.size() - 1,
        static_cast<size_t>(schedule[i].at_s / kSegmentSeconds))];
    const bool ok = out->answered[i] &&
                    (schedule[i].update
                         ? out->responses[i].text.rfind("OK epoch=", 0) == 0
                         : out->responses[i].text.rfind("R(", 0) == 0);
    if (schedule[i].update) {
      if (!ok) ++out->failed_updates;
      for (size_t j = i + 1; j < schedule.size(); ++j) {
        if (schedule[j].update) continue;
        const bool read_ok =
            out->answered[j] && out->responses[j].text.rfind("R(", 0) == 0;
        out->visible_ms.push_back(
            read_ok ? MsBetween(sent[i], out->responses[j].at)
                    : kInfinitelyLate);
        break;
      }
    } else if (ok) {
      out->reads.Ok(MsBetween(due[i], out->responses[i].at));
      segment.Ok(MsBetween(due[i], out->responses[i].at));
    } else {
      out->reads.Fail();
      segment.Fail();
    }
  }
}

Outcome RunSocket(const std::vector<Event>& schedule, Client& client) {
  Outcome out;
  const size_t n = schedule.size();
  std::vector<Clock::time_point> due(n);
  std::vector<Clock::time_point> sent(n);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t i = 0; i < n; ++i) {
    due[i] = After(start, schedule[i].at_s);
    std::this_thread::sleep_until(due[i]);
    sent[i] = client.Send(schedule[i].Line());
    out.late_ms.push_back(MsBetween(due[i], sent[i]));
  }
  const size_t received = client.received();
  out.outstanding_at_end = n > received ? n - received : 0;
  out.responses.resize(n);
  out.answered.assign(n, false);
  const Clock::time_point deadline = Clock::now() + kDrainGrace;
  for (size_t i = 0; i < n; ++i) {
    if (!client.Next(&out.responses[i], deadline)) break;
    out.answered[i] = true;
  }
  Account(schedule, due, sent, &out);
  return out;
}

// Every answered read must equal a fresh flood engine's answer on the graph
// of the epoch the protocol pinned it to: the initial graph plus every
// update acknowledged before it.
void CheckAnswers(const relmax::UncertainGraph& initial,
                  const std::vector<Event>& schedule, const Outcome& out,
                  RunResult* result) {
  relmax::QueryEngineOptions flood;
  flood.num_samples = kSamples;
  flood.num_threads = 2;
  flood.seed = Options().engine.seed;
  relmax::UncertainGraph g = initial;
  size_t i = 0;
  while (i < schedule.size()) {
    relmax::QuerySet set;
    std::vector<size_t> rows;
    for (; i < schedule.size() && !schedule[i].update; ++i) {
      if (out.answered[i] && out.responses[i].text.rfind("R(", 0) == 0) {
        set.AddSt(schedule[i].a, schedule[i].b);
        rows.push_back(i);
      }
    }
    if (!rows.empty()) {
      relmax::QueryEngine engine(g, flood);
      auto answers = engine.Answer(set);
      RELMAX_CHECK(answers.ok());
      for (size_t k = 0; k < rows.size(); ++k) {
        const Event& e = schedule[rows[k]];
        const std::string want =
            relmax::serve::QueryResponse(e.a, e.b, answers->st_values[k]);
        if (want != out.responses[rows[k]].text) {
          result->correct = false;
          result->problems.push_back(
              "read " + std::to_string(rows[k]) + " answered '" +
              out.responses[rows[k]].text + "', fresh flood engine says '" +
              want + "'");
        }
      }
    }
    if (i < schedule.size()) {
      const Event& u = schedule[i];
      if (out.answered[i] && out.responses[i].text.rfind("OK epoch=", 0) == 0) {
        RELMAX_CHECK(g.UpdateEdgeProb(u.a, u.b, u.p).ok());
      }
      ++i;
    }
  }
}

// Median over segments of the per-segment read percentile.
double SegmentMedian(const Outcome& out, double p) {
  std::vector<double> per_segment;
  for (const LatencyLog& segment : out.segments) {
    per_segment.push_back(segment.Percentile(p));
  }
  return NearestRank(per_segment, 50);
}

double AnsweredMean(const Outcome& out) {
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < out.responses.size(); ++i) {
    const std::string& text = out.responses[i].text;
    const size_t eq = text.find(" = ");
    if (!out.answered[i] || text.rfind("R(", 0) != 0 ||
        eq == std::string::npos) {
      continue;
    }
    sum += std::strtod(text.c_str() + eq + 3, nullptr);
    ++count;
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

// The same schedule straight into ServeCore::Submit, without the socket.
LatencyLog ReplayThroughCore(const ServeInputs& in, Trace* trace) {
  relmax::serve::ServeCore core(in.graph, Options());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Clock::time_point> warm_done;
  WarmLanes(
      [&](NodeId s, NodeId t) {
        const Clock::time_point at = Clock::now();
        core.Submit(s, t, [&](const relmax::StatusOr<double>&, uint64_t) {
          std::lock_guard<std::mutex> lock(mu);
          warm_done.push_back(Clock::now());
          cv.notify_all();
        });
        return at;
      },
      [&] {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !warm_done.empty(); });
        const Clock::time_point at = warm_done.front();
        warm_done.pop_front();
        return at;
      });

  const size_t n = in.schedule.size();
  std::vector<Clock::time_point> due(n);
  std::vector<Clock::time_point> done(n);
  std::vector<char> ok(n, 0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t i = 0; i < n; ++i) {
    const Event& e = in.schedule[i];
    due[i] = After(start, e.at_s);
    std::this_thread::sleep_until(due[i]);
    if (e.update) {
      Trace::Scope span(trace, "serve.publish");
      ok[i] = core.UpdateEdgeProb(e.a, e.b, e.p).ok();
      continue;
    }
    core.Submit(e.a, e.b,
                [&, i](const relmax::StatusOr<double>& r, uint64_t) {
                  done[i] = Clock::now();
                  ok[i] = r.ok();
                });
  }
  core.Drain();  // orders every callback's writes before the reads below
  LatencyLog log;
  for (size_t i = 0; i < n; ++i) {
    if (in.schedule[i].update) continue;
    if (ok[i]) {
      log.Ok(MsBetween(due[i], done[i]));
    } else {
      log.Fail();
    }
  }
  return log;
}

// Per-update layer costs on graph copies of the benchmark's own: bank
// resample, XOR-diff relabel, index queries for the epoch's reads, and how
// long a warm indexed engine takes to answer its first read after it.
void DecomposeUpdates(const ServeInputs& in, Trace* trace) {
  relmax::UncertainGraph g = in.graph;
  relmax::UncertainGraph engine_graph = in.graph;
  relmax::WorldViewOptions world;
  world.num_samples = kSamples;
  world.seed = Options().engine.seed;
  world.num_threads = 1;
  std::unique_ptr<relmax::WorldView> bank;
  {
    Trace::Scope span(trace, "sampling.bank_fill");
    bank = relmax::MakeWorldView(g, world);
  }
  std::unique_ptr<relmax::ReliabilityIndex> index;
  {
    Trace::Scope span(trace, "index.label_build");
    relmax::ReliabilityIndex::Options options;
    options.num_threads = 1;
    index = std::make_unique<relmax::ReliabilityIndex>(*bank, options);
  }
  relmax::QueryEngine engine(engine_graph, Options().engine);
  RELMAX_CHECK(engine.EstimateSt(0, 1).ok());
  size_t reads = 0;
  const std::vector<Event>& schedule = in.schedule;
  for (size_t i = 0; i < schedule.size();) {
    std::unordered_set<NodeId> sources;
    {
      Trace::Scope span(trace, "index.query");
      for (; i < schedule.size() && !schedule[i].update; ++i, ++reads) {
        index->Query(schedule[i].a, schedule[i].b);
        sources.insert(schedule[i].a);
      }
    }
    trace->Count("sources", static_cast<double>(sources.size()));
    if (i == schedule.size()) break;
    const Event& u = schedule[i++];
    RELMAX_CHECK(g.UpdateEdgeProb(u.a, u.b, u.p).ok());
    std::unique_ptr<relmax::WorldView> fresh;
    {
      Trace::Scope span(trace, "sampling.bank_fill");
      fresh = relmax::MakeWorldView(g, world);
    }
    // ApplyBankUpdate drops the reach cache and zeroes its counters.
    trace->Count("index.reach_floods", index->stats().reach_floods);
    trace->Count("index.reach_row_evictions",
                 index->stats().reach_row_evictions);
    {
      Trace::Scope span(trace, "index.relabel");
      index->ApplyBankUpdate(
          *fresh, relmax::ReliabilityIndex::DiffWorlds(*bank, *fresh));
    }
    bank = std::move(fresh);
    trace->Count("index.worlds_relabeled", index->stats().last_update_worlds);
    trace->Count("updates", 1);
    RELMAX_CHECK(engine_graph.UpdateEdgeProb(u.a, u.b, u.p).ok());
    const Event* next_read = nullptr;
    for (size_t j = i; j < schedule.size() && !next_read; ++j) {
      if (!schedule[j].update) next_read = &schedule[j];
    }
    Trace::Scope span(trace, "serve.catchup");
    RELMAX_CHECK(engine.EstimateSt(next_read ? next_read->a : 0,
                                   next_read ? next_read->b : 1).ok());
  }
  trace->Count("reads", static_cast<double>(reads));
  trace->Count("index.reach_floods", index->stats().reach_floods);
  trace->Count("index.reach_row_evictions", index->stats().reach_row_evictions);
}

}  // namespace

RunResult RunServeRw(const RunConfig& config) {
  RunResult result;
  ServeInputs in;
  const double setup_s = MedianSetupSeconds([&] { SetUp(config, &in); },
                                            [&] { in.daemon.reset(); });

  const Clock::time_point start = Clock::now();
  const Outcome out = RunSocket(in.schedule, in.daemon->client());
  const double peak_rss_mb = PeakRssMb();
  const relmax::serve::ServeStats stats = in.daemon->core().Stats();
  in.daemon.reset();

  result.attempted = in.schedule.size();
  result.failed = out.reads.failed() + out.failed_updates;
  CheckAnswers(in.graph, in.schedule, out, &result);
  Digest digest;
  for (size_t i = 0; i < out.responses.size(); ++i) {
    digest.AddString(out.answered[i] ? out.responses[i].text : "<unanswered>");
  }
  result.digest = digest.Hex();
  const double late_p99 = NearestRank(out.late_ms, 99);
  std::fprintf(stderr,
               "perfbench: serve-rw reads p50=%.3f p90=%.3f p95=%.3f "
               "p99=%.3f p99.9=%.3f ms over %zu reads\n",
               out.reads.Percentile(50), out.reads.Percentile(90),
               out.reads.Percentile(95), out.reads.Percentile(99),
               out.reads.Percentile(99.9), out.reads.attempted());
  if (out.outstanding_at_end > static_cast<size_t>(kReadQps) ||
      late_p99 > 10.0) {
    result.problems.push_back(
        "run flagged: " + std::to_string(out.outstanding_at_end) +
        " requests outstanding when the schedule ended, generator p99 late " +
        JsonNumber(late_p99) + " ms");
  }

  if (!config.trace) {
    result.end_to_end = {
        {"setup_s", setup_s},
        {"peak_rss_mb", peak_rss_mb},
        {"ok_frac", 1.0 - static_cast<double>(result.failed) /
                              static_cast<double>(result.attempted)},
        {"p50_ms", SegmentMedian(out, 50)},
        {"tail_ms", SegmentMedian(out, 99)},
        {"answer_mean", AnsweredMean(out)},
    };
    return result;
  }

  Trace trace(true);
  const LatencyLog core_log = ReplayThroughCore(in, &trace);
  DecomposeUpdates(in, &trace);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double updates = trace.Counter("updates");
  const double kreads = trace.Counter("reads") / 1000.0;
  auto per_update = [&](double v) { return updates > 0 ? v / updates : 0.0; };
  auto per_kread = [&](double v) { return kreads > 0 ? v / kreads : 0.0; };
  const double fills = static_cast<double>(
      Summarize(trace.spans())["sampling.bank_fill"].count);
  result.layers = {
      {"sampling.bank_fill_ms", SelfMs(trace, "sampling.bank_fill") / fills},
      {"index.label_build_ms", SelfMs(trace, "index.label_build")},
      {"index.query_ms", per_kread(SelfMs(trace, "index.query"))},
      {"index.reach_floods", per_kread(trace.Counter("index.reach_floods"))},
      {"index.reach_floods_per_source",
       trace.Counter("sources") > 0
           ? trace.Counter("index.reach_floods") / trace.Counter("sources")
           : 0.0},
      {"index.reach_row_evictions",
       per_kread(trace.Counter("index.reach_row_evictions"))},
      {"index.relabel_ms", per_update(SelfMs(trace, "index.relabel"))},
      {"index.worlds_relabeled",
       per_update(trace.Counter("index.worlds_relabeled"))},
      {"serve.core_p50_ms", core_log.Percentile(50)},
      {"serve.core_p99_ms", core_log.Percentile(99)},
      {"server.protocol_ms",
       out.reads.Percentile(50) - core_log.Percentile(50)},
      {"serve.publish_ms", per_update(SelfMs(trace, "serve.publish"))},
      {"serve.catchup_ms", per_update(SelfMs(trace, "serve.catchup"))},
      {"serve.mean_window",
       stats.batches ? static_cast<double>(stats.answered) /
                           static_cast<double>(stats.batches)
                     : 0.0},
      {"serve.cache_hit_ratio",
       stats.answered ? static_cast<double>(stats.cache_hits) /
                            static_cast<double>(stats.answered)
                      : 0.0},
      {"serve.shed", static_cast<double>(stats.shed)},
      {"serve.rss_per_lane_mb", in.rss_per_lane_mb},
      {"serve.gen_late_p99_ms", late_p99},
      {"serve.outstanding_at_end", static_cast<double>(out.outstanding_at_end)},
      {"serve.update_visible_p50_ms", NearestRank(out.visible_ms, 50)},
      {"trace.p50_ms", SegmentMedian(out, 50)},
  };
  AddTraceOverhead(trace, wall_s, &result);
  if (!config.trace_path.empty()) {
    trace.WriteJson(config.trace_path, {{"workload", "serve-rw"},
                                        {"seed", std::to_string(config.seed)},
                                        {"digest", result.digest}});
  }
  return result;
}

}  // namespace perfbench
