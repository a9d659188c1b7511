// e2ebench — the repository's end-to-end benchmark harness.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --daemon PATH/TO/acp_billboardd [--socket-dir DIR] [--toy]
//
// Runs one workload for about S seconds of repetitions, checks every output
// against properties and independent computations, prints each metric as
// "name = value unit" and ends with one JSON line:
//
//   {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// Every repetition (set-up, trial, checks) runs in a fresh child process, the
// way a user's acpsim or bbload run does: no heap state carries over from one
// repetition to the next, and the child's peak RSS is that repetition's alone.
// Each metric is the median over the run's repetitions; trial_vs_ref is the
// ratio of two such medians, the trial's over a host reference job's.
//
// --trace 0 reports the end-to-end metrics from bare runs; --trace 1 wraps
// the protocol, adversary and billboard service in the timing decorators of
// tracing.hpp and reports the per-layer metrics instead. --toy shrinks every
// workload to a few thousand players (selftest.py uses it). See README.md for
// the workloads, the metrics and what each layer should move.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "acp/billboard/loadgen.hpp"
#include "acp/billboard/remote.hpp"
#include "acp/billboard/server_core.hpp"
#include "acp/billboard/service.hpp"
#include "acp/engine/sync_engine.hpp"
#include "acp/rng/rng.hpp"
#include "acp/scenario/build.hpp"
#include "acp/scenario/registry.hpp"
#include "acp/scenario/spec.hpp"
#include "process.hpp"
#include "tracing.hpp"

namespace e2ebench {
namespace {

// -- Options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string daemon;
  std::string socket_dir = ".";
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "e2ebench: " << message
            << "\nusage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 --daemon PATH [--socket-dir DIR] [--toy]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--toy") {
      opt.toy = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value after " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--daemon") {
      opt.daemon = value;
    } else if (arg == "--socket-dir") {
      opt.socket_dir = value;
    } else {
      usage_error("unknown option " + arg);
    }
  }
  if (opt.workload.empty()) usage_error("--workload is required");
  if (opt.daemon.empty()) usage_error("--daemon is required");
  return opt;
}

// -- Metrics ----------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by untraced runs; every workload measures all of them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"trial_vs_ref", "ratio"},
    {"peak_rss_mb", "MiB"},
    {"server_rss_mb", "MiB"},
};

/// trial_vs_ref is the run's median trial_s over its median ref_s (the host
/// reference below). The raw times behind it are printed as comment lines
/// after the end-to-end metrics but left out of the result: on a shared
/// host they follow the host's speed from minute to minute (README.md,
/// "Why the trial is timed against a reference").
constexpr MetricSpec kRawTimes[] = {
    {"trial_s", "s"},
    {"ref_s", "s"},
    {"trial_cpu_s", "s"},
    {"posts_per_s", "1/s"},
};

/// Reported by traced runs. A layer a workload does not pass through reads
/// 0 (the simulation layers on the swarm, the daemon on in-process runs).
constexpr MetricSpec kPerLayer[] = {
    {"scenario.build_s", "s"},        {"core.round_begin_s", "s"},
    {"core.choose_probe_s", "s"},     {"core.choose_probe_calls", "count"},
    {"core.probe_result_s", "s"},     {"core.probe_result_calls", "count"},
    {"adversary.plan_s", "s"},        {"adversary.posts", "count"},
    {"billboard.commit_s", "s"},      {"billboard.commits", "count"},
    {"billboard.posts", "count"},     {"engine.self_s", "s"},
    {"engine.rounds", "count"},       {"wire.commit_bytes", "bytes"},
    {"wire.encode_s", "s"},           {"process.user_s", "s"},
    {"process.sys_s", "s"},           {"process.minflt", "count"},
    {"server.cpu_s", "s"},            {"server.worker_cpu_max_s", "s"},
    {"server.worker_cpu_min_s", "s"}, {"server.ctxsw", "count"},
    {"server.forwarded", "count"},    {"server.posts", "count"},
    {"server.queries", "count"},      {"loadgen.query_p50_us", "us"},
    {"loadgen.query_p99_us", "us"},
};

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// -- One repetition's report ------------------------------------------------

/// What a repetition (a child process) hands back to the parent: metric
/// samples, check outcomes, a digest of the RunResult, operation counts and
/// one human-readable note. Serialized as text lines over a pipe.
struct Record {
  std::vector<std::pair<std::string, double>> samples;
  std::size_t checks = 0;
  std::vector<std::string> failures;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string note;

  void add(const std::string& name, double value) {
    samples.emplace_back(name, value);
  }
  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failures.push_back(what);
  }
};

std::string serialize(const Record& record) {
  std::ostringstream out;
  out << "digest " << record.digest << "\nattempted " << record.attempted
      << "\nfailed " << record.failed << "\nchecks " << record.checks
      << "\nnote " << record.note << "\n";
  for (const auto& [name, value] : record.samples) {
    out << "sample " << name << " " << number(value) << "\n";
  }
  for (const std::string& failure : record.failures) {
    out << "failure " << failure << "\n";
  }
  return out.str();
}

Record parse_record(const std::string& text) {
  Record record;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string rest =
        space == std::string::npos ? "" : line.substr(space + 1);
    if (key == "digest") {
      record.digest = std::stoull(rest);
    } else if (key == "attempted") {
      record.attempted = std::stoull(rest);
    } else if (key == "failed") {
      record.failed = std::stoull(rest);
    } else if (key == "checks") {
      record.checks = std::stoull(rest);
    } else if (key == "note") {
      record.note = rest;
    } else if (key == "sample") {
      const std::size_t split = rest.find(' ');
      record.add(rest.substr(0, split), std::stod(rest.substr(split + 1)));
    } else if (key == "failure") {
      record.failures.push_back(rest);
    } else if (key == "error") {
      throw std::runtime_error("repetition failed: " + rest);
    }
  }
  return record;
}

/// Run `body` in a forked child and return its Record plus the child's
/// peak RSS (wait4's ru_maxrss). The child only ever runs `body`: it
/// returns through _exit, so nothing of the parent is flushed or destroyed
/// twice. The parent is single-threaded whenever it forks.
Record run_in_child(const std::function<Record()>& body, double& peak_rss_mb) {
  std::cout.flush();
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Die with the harness; a daemon the repetition started dies with it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
    std::string out;
    int code = 0;
    try {
      out = serialize(body());
    } catch (const std::exception& error) {
      std::string what = error.what();
      std::replace(what.begin(), what.end(), '\n', ' ');
      out = "error " + what + "\n";
      code = 1;
    }
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::write(fds[1], out.data() + sent, out.size() - sent);
      if (n <= 0) _exit(3);
      sent += static_cast<std::size_t>(n);
    }
    _exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  Record record = parse_record(text);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("repetition process died (status " +
                             std::to_string(status) + ")");
  }
  return record;
}

/// The repetition loop of a run: at least three repetitions, then more
/// while another one (judged by the last one's length) still fits in the
/// run's measuring time.
class RepClock {
 public:
  explicit RepClock(double seconds) : seconds_(seconds) {}

  bool another() {
    const auto now = Clock::now();
    if (count_ > 0) last_ = seconds_between(rep_start_, now);
    rep_start_ = now;
    const double elapsed = seconds_between(start_, now);
    return count_++ < 3 || elapsed + last_ <= seconds_;
  }

 private:
  double seconds_;
  Clock::time_point start_ = Clock::now();
  Clock::time_point rep_start_ = start_;
  double last_ = 0.0;
  std::size_t count_ = 0;
};

std::atomic<std::uint64_t> reference_sink{0};  // keeps the job's work live

/// The host reference: a fixed job of the benchmark's own, timed in the
/// harness process right before each repetition is forked (so its memory
/// stays out of the repetition's peak RSS), on as many threads as the trial
/// uses. It first-touches a fresh 256 MiB table (page faults and
/// zeroing, like a trial's growing board and player state), then each
/// thread makes 4M random read-modify-writes into its own slice of it (like
/// the probes and ledger updates of a round). The trial's time over this
/// one cancels the host's speed during the run, which moves both alike.
double reference_s(std::size_t threads) {
  constexpr std::size_t kWords = (std::size_t{256} << 20) / 8;
  constexpr int kSteps = 1 << 22;
  const std::size_t slice = kWords / threads;
  const auto start = Clock::now();
  std::vector<std::uint64_t> table(kWords, 1);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([own = table.data() + t * slice, slice, t] {
      std::uint64_t x = 0x9E3779B97F4A7C15ULL * (t + 1);
      std::uint64_t sum = 0;
      for (int i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += own[x % slice]++;
      }
      reference_sink.fetch_add(sum, std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) worker.join();
  return seconds_between(start, Clock::now());
}

/// Set-up is short next to a trial, so each repetition sets up at least
/// three times and for at least 0.1 s (the extra set-ups are torn down
/// untimed); setup_s is the median over every set-up of the run.
class SetupWindow {
 public:
  bool another() {
    return count_++ < 3 || seconds_between(start_, Clock::now()) < 0.1;
  }

 private:
  Clock::time_point start_ = Clock::now();
  std::size_t count_ = 0;
};

// -- Simulation workloads ---------------------------------------------------

/// The engine stream seed acpsim derives from a scenario seed, so that
/// `acpsim --seed N` runs the same trial as workload seed N.
constexpr std::uint64_t kEngineSeedSalt = 0x2545F491;

struct SimWorkload {
  std::size_t n = 0;  ///< players = objects
  std::string adversary;
  std::size_t engine_threads = 1;
  bool remote = false;  ///< over a 1-IO-thread daemon, private board
};

/// Everything one trial needs, built the way run_scenario_trial builds it:
/// world and population from Rng(seed), protocol and adversary by registry
/// name, the billboard service from the backend string.
struct Trial {
  Trial(const acp::scenario::ScenarioSpec& spec, const std::string& backend)
      : rng(spec.seed),
        world(acp::scenario::build_world(spec, rng)),
        population(acp::scenario::build_population(spec, rng)),
        protocol(acp::scenario::registries().protocols.make(
            spec.protocol, acp::scenario::ProtocolBuildContext{spec, world})),
        adversary(acp::scenario::registries().adversaries.make(
            spec.adversary,
            acp::scenario::AdversaryBuildContext{spec, *protocol})),
        build_done(Clock::now()),
        board(acp::make_billboard_service(
            acp::BillboardBackendSpec::parse(backend), spec.n,
            world.num_objects())) {}

  acp::Rng rng;
  acp::World world;
  acp::Population population;
  std::unique_ptr<acp::Protocol> protocol;
  std::unique_ptr<acp::Adversary> adversary;
  Clock::time_point build_done;
  std::unique_ptr<acp::BillboardService> board;
};

/// Layer tallies of one traced trial.
struct Layers {
  double rounds_s = 0.0;  ///< sum of the observer's round-to-round deltas
  std::size_t lanes = 1;  ///< engine threads that ran the rounds
  std::uint64_t round_begin_ns = 0;
  LaneTotals lane_tally;
  std::uint64_t plan_ns = 0;
  std::uint64_t adversary_posts = 0;
  std::uint64_t commit_ns = 0;
  std::uint64_t commits = 0;
  std::uint64_t posts = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t wire_bytes = 0;
};

struct TrialRun {
  acp::RunResult result;
  std::optional<Layers> layers;  ///< traced runs only
};

TrialRun run_trial(Trial& trial, const acp::scenario::ScenarioSpec& spec,
                   bool traced) {
  acp::SyncRunConfig config;
  config.max_rounds = spec.max_rounds;
  config.seed = spec.seed ^ kEngineSeedSalt;
  config.engine_threads = spec.engine_threads;
  TrialRun run;
  if (!traced) {
    config.billboard = trial.board.get();
    run.result = acp::SyncEngine::run(trial.world, trial.population,
                                      *trial.protocol, *trial.adversary,
                                      config);
    return run;
  }
  RoundClock clock;
  TimedProtocol protocol(*trial.protocol, trial.world);
  TimedAdversary adversary(*trial.adversary);
  TimedBillboard board(*trial.board);
  config.observer = &clock;
  config.billboard = &board;
  run.result = acp::SyncEngine::run(trial.world, trial.population, protocol,
                                    adversary, config);
  Layers layers;
  layers.rounds_s = clock.rounds_seconds();
  layers.lanes = clock.lanes();
  layers.round_begin_ns = protocol.round_begin_ns();
  layers.lane_tally = protocol.lanes();
  layers.plan_ns = adversary.plan_ns();
  layers.adversary_posts = adversary.posts();
  layers.commit_ns = board.commit_ns();
  layers.commits = board.commits();
  layers.posts = board.posts();
  layers.encode_ns = board.encode_ns();
  layers.wire_bytes = board.wire_bytes();
  run.layers = layers;
  return run;
}

/// splitmix64-chained digest of every RunResult field: equal digests are
/// how repetitions in separate processes compare their results.
std::uint64_t digest(const acp::RunResult& result) {
  std::uint64_t h = 0x243F6A8885A308D3ull;
  const auto mix = [&h](std::uint64_t value) {
    h ^= value + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
  };
  mix(static_cast<std::uint64_t>(result.rounds_executed));
  mix(result.all_honest_satisfied ? 1 : 0);
  mix(result.total_posts);
  mix(result.players.size());
  for (const acp::PlayerStats& stats : result.players) {
    std::uint64_t cost_bits = 0;
    std::memcpy(&cost_bits, &stats.cost_paid, sizeof(cost_bits));
    mix((stats.honest ? 1u : 0u) | (stats.probed_good ? 2u : 0u));
    mix(static_cast<std::uint64_t>(stats.probes));
    mix(cost_bits);
    mix(static_cast<std::uint64_t>(stats.satisfied_round));
  }
  return h;
}

/// Properties every finished trial must have, checked against the world,
/// the population and the committed board — not against stored output.
void check_trial(Record& record, const Trial& trial, const TrialRun& run) {
  const acp::RunResult& result = run.result;
  const acp::Billboard& board = trial.board->board();
  const std::size_t n = trial.population.num_players();

  record.expect(result.all_honest_satisfied, "all honest players satisfied");
  std::size_t unsatisfied = 0;
  std::size_t honesty_mismatch = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const acp::PlayerStats& stats = result.players[p];
    if (stats.honest != trial.population.is_honest(acp::PlayerId(p))) {
      ++honesty_mismatch;
    }
    if (stats.honest && !stats.satisfied()) ++unsatisfied;
  }
  record.expect(honesty_mismatch == 0, "RunResult honesty flags match");
  record.expect(unsatisfied == 0,
                std::to_string(unsatisfied) + " honest players unsatisfied");
  record.expect(result.total_posts == board.size(),
                "RunResult.total_posts equals the board size");

  // Log shape: nondecreasing rounds, at most one post per author per round;
  // and each halting honest player's post of its halting round (its final
  // probe's report) names a good object.
  std::vector<acp::Round> last_round(n, -1);
  std::vector<char> final_probe_good(n, 0);
  std::size_t order_violations = 0;
  std::size_t duplicate_posts = 0;
  acp::Round previous = -1;
  std::uint64_t dishonest_posts = 0;
  for (const acp::Post& post : board.posts()) {
    if (post.round < previous) ++order_violations;
    previous = post.round;
    const std::size_t author = post.author.value();
    if (last_round[author] == post.round) ++duplicate_posts;
    last_round[author] = post.round;
    const acp::PlayerStats& stats = result.players[author];
    if (!stats.honest) {
      ++dishonest_posts;
    } else if (post.round == stats.satisfied_round &&
               trial.world.is_good(post.object)) {
      final_probe_good[author] = 1;
    }
  }
  record.expect(order_violations == 0, "board rounds are nondecreasing");
  record.expect(duplicate_posts == 0, "at most one post per author per round");
  std::size_t bad_final = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (result.players[p].honest && result.players[p].satisfied() &&
        final_probe_good[p] == 0) {
      ++bad_final;
    }
  }
  record.expect(bad_final == 0,
                std::to_string(bad_final) +
                    " halting players' final probes not on a good object");

  if (run.layers) {
    const Layers& layers = *run.layers;
    const auto probes =
        static_cast<std::uint64_t>(result.total_honest_probes());
    std::uint64_t satisfied = 0;
    for (const acp::PlayerStats& stats : result.players) {
      if (stats.honest && stats.satisfied()) ++satisfied;
    }
    record.expect(layers.lane_tally.result_calls == probes,
                  "on_probe_result calls equal RunResult probes");
    record.expect(layers.lane_tally.choose_calls >= probes,
                  "choose_probe calls cover every probe");
    record.expect(layers.lane_tally.halts == satisfied,
                  "decorated halts equal satisfied players");
    record.expect(layers.lane_tally.halts_on_bad == 0,
                  "every halting probe was on a good object");
    record.expect(layers.posts == board.size(),
                  "decorated commit posts equal the board size");
    record.expect(
        layers.commits == static_cast<std::uint64_t>(result.rounds_executed),
        "one commit per executed round");
    record.expect(layers.adversary_posts == dishonest_posts,
                  "decorated adversary posts equal dishonest posts");
  }
}

void add_layer_samples(Record& record, const TrialRun& run,
                       const Usage& usage) {
  const Layers& layers = *run.layers;
  // Kernel-thread children count in full; lane busy time is shared out
  // over the lanes that ran it.
  const double children =
      static_cast<double>(layers.round_begin_ns + layers.plan_ns +
                          layers.commit_ns + layers.encode_ns) /
          1e9 +
      (layers.lane_tally.choose_ns + layers.lane_tally.result_ns) / 1e9 /
          static_cast<double>(layers.lanes);
  record.add("core.round_begin_s",
             static_cast<double>(layers.round_begin_ns) / 1e9);
  record.add("core.choose_probe_s", layers.lane_tally.choose_ns / 1e9);
  record.add("core.choose_probe_calls",
             static_cast<double>(layers.lane_tally.choose_calls));
  record.add("core.probe_result_s", layers.lane_tally.result_ns / 1e9);
  record.add("core.probe_result_calls",
             static_cast<double>(layers.lane_tally.result_calls));
  record.add("adversary.plan_s", static_cast<double>(layers.plan_ns) / 1e9);
  record.add("adversary.posts", static_cast<double>(layers.adversary_posts));
  record.add("billboard.commit_s", static_cast<double>(layers.commit_ns) / 1e9);
  record.add("billboard.commits", static_cast<double>(layers.commits));
  record.add("billboard.posts", static_cast<double>(layers.posts));
  record.add("wire.commit_bytes", static_cast<double>(layers.wire_bytes));
  record.add("wire.encode_s", static_cast<double>(layers.encode_ns) / 1e9);
  record.add("engine.rounds", static_cast<double>(run.result.rounds_executed));
  record.add("engine.self_s", layers.rounds_s - children);
  record.add("process.user_s", usage.user_s);
  record.add("process.sys_s", usage.sys_s);
  record.add("process.minflt", static_cast<double>(usage.minflt));
}

/// One measured repetition of a simulation workload (runs in a child).
Record sim_rep(const Options& opt, const acp::scenario::ScenarioSpec& spec,
               const SimWorkload& workload, const CpuPlan& cpus,
               std::size_t rep) {
  Record record;
  int serial = 0;
  // Set-up: [daemon start,] world, population, protocol, adversary,
  // [board open]; repeated (SetupWindow), the last one runs the trial.
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Trial> trial;
  for (SetupWindow window; window.another();) {
    trial.reset();
    if (daemon) (void)daemon->stop();
    const auto setup_start = Clock::now();
    std::string backend = "inproc";
    if (workload.remote) {
      daemon = std::make_unique<Daemon>(
          opt.daemon,
          opt.socket_dir + "/e2e-" + std::to_string(getpid()) + "-" +
              std::to_string(serial++) + ".sock",
          1, 1, cpus.daemon);
      backend = "socket:" + daemon->socket_path();
    }
    const auto build_start = Clock::now();
    trial = std::make_unique<Trial>(spec, backend);
    const auto setup_end = Clock::now();
    record.add("setup_s", seconds_between(setup_start, setup_end));
    record.add("scenario.build_s",
               seconds_between(build_start, trial->build_done));
  }

  const Usage usage_before = self_usage();
  const auto trial_start = Clock::now();
  ++record.attempted;
  const TrialRun run = run_trial(*trial, spec, opt.trace);
  const double trial_s = seconds_between(trial_start, Clock::now());
  const Usage usage = self_usage() - usage_before;

  check_trial(record, *trial, run);
  record.digest = digest(run.result);
  double trial_cpu_s = usage.user_s + usage.sys_s;
  record.add("trial_s", trial_s);
  record.add("posts_per_s",
             static_cast<double>(run.result.total_posts) / trial_s);
  if (run.layers) add_layer_samples(record, run, usage);

  record.note = "trial " + number(trial_s) + " s, " +
                std::to_string(run.result.rounds_executed) + " rounds, " +
                std::to_string(run.result.total_posts) + " posts, user " +
                number(usage.user_s) + " s, sys " + number(usage.sys_s) + " s";

  if (daemon) {
    const DaemonSample sample = sample_daemon(daemon->pid());
    // The daemon is fresh from this repetition's last set-up, so its CPU
    // time is the trial's server side (plus a few ms of start-up).
    trial_cpu_s += sample.cpu_s;
    record.add("server_rss_mb", sample.rss_mb);
    record.add("server.cpu_s", sample.cpu_s);
    record.add("server.worker_cpu_max_s", sample.worker_cpu_max_s);
    record.add("server.worker_cpu_min_s", sample.worker_cpu_min_s);
    record.add("server.ctxsw", static_cast<double>(sample.ctxsw));
    record.note += ", daemon cpu " + number(sample.cpu_s) + " s, VmHWM " +
                   number(sample.rss_mb) + " MiB";
    if (rep == 0) {
      // The one read that bypasses the mirror: the server's own log.
      record.expect(trial->board->snapshot() == trial->board->board().posts(),
                    "server snapshot equals the client mirror");
    }
    trial->board.reset();  // close the session before the daemon stops
    const DaemonStats stats = daemon->stop();
    record.expect(stats.posts == run.result.total_posts,
                  "daemon post count equals the board size");
    record.expect(stats.errors == 0, "daemon reported no errors");
    record.add("server.forwarded", static_cast<double>(stats.forwarded));
    record.add("server.posts", static_cast<double>(stats.posts));
    record.add("server.queries", static_cast<double>(stats.queries));
  }
  record.add("trial_cpu_s", trial_cpu_s);
  return record;
}

/// The reference trial (runs in a child): same seed, opposite tracing mode,
/// one engine thread, in-process board.
Record sim_reference(const Options& opt, acp::scenario::ScenarioSpec spec) {
  spec.engine_threads = 1;
  Record record;
  Trial trial(spec, "inproc");
  ++record.attempted;
  const TrialRun run = run_trial(trial, spec, !opt.trace);
  check_trial(record, trial, run);
  record.digest = digest(run.result);
  return record;
}

// -- The swarm workload ------------------------------------------------------

struct SwarmWorkload {
  std::size_t clients = 4;
  std::size_t boards = 4;
  std::size_t pipeline = 16;
  std::size_t batch_posts = 16;
  std::size_t batches = 50'000;  ///< commits per client
  std::size_t queries = 5'000;   ///< timed window queries per client
  std::size_t players = 1'024;
  std::size_t objects = 256;
  std::size_t io_threads = 2;
  std::size_t shards = 8;
};

/// Board names chosen so that half the clients open a board owned by the
/// other IO worker. The daemon deals accepted connections round-robin and
/// the loadgen connects its clients in index order, so client i lands on
/// worker i % io_threads; client i opens board i % boards.
std::vector<std::string> swarm_board_names(const SwarmWorkload& workload) {
  std::vector<std::string> names;
  for (std::size_t b = 0; b < workload.boards; ++b) {
    const std::size_t home = b % workload.io_threads;
    const bool cross = b < workload.boards / 2;
    for (std::size_t k = 0;; ++k) {
      std::string name = "e2e-" + std::to_string(b) + "-" + std::to_string(k);
      const std::size_t owner =
          acp::BillboardServerCore::owner_shard(name, workload.shards) %
          workload.io_threads;
      if ((owner != home) == cross) {
        names.push_back(std::move(name));
        break;
      }
    }
  }
  return names;
}

/// The window count a billboard service should answer, computed plainly
/// from the post log: each author's vote is its first positive post
/// (kFirstPositive, f = 1); count the votes for `object` stamped in
/// [begin, end).
acp::Count plain_window_count(const std::vector<acp::Post>& posts,
                              std::size_t players, acp::ObjectId object,
                              acp::Round begin, acp::Round end) {
  std::vector<char> voted(players, 0);
  acp::Count count = 0;
  for (const acp::Post& post : posts) {
    if (!post.positive || voted[post.author.value()] != 0) continue;
    voted[post.author.value()] = 1;
    if (post.object == object && post.round >= begin && post.round < end) {
      ++count;
    }
  }
  return count;
}

/// Join each named board, compare its size with what was sent to it, and
/// compare sampled window queries with a plain count over its snapshot.
/// Returns the number of window queries it sent.
std::uint64_t verify_boards(Record& record, const Options& opt,
                            const SwarmWorkload& workload,
                            const acp::net::Endpoint& endpoint,
                            const std::vector<std::string>& boards) {
  std::uint64_t sent = 0;
  for (std::size_t b = 0; b < boards.size(); ++b) {
    std::size_t clients_on_board = 0;
    for (std::size_t c = 0; c < workload.clients; ++c) {
      if (c % boards.size() == b) ++clients_on_board;
    }
    acp::RemoteBillboard reader(endpoint, workload.players, workload.objects,
                                acp::Billboard::Mode::kReplica, boards[b]);
    record.expect(reader.stat().size == clients_on_board * workload.batches *
                                            workload.batch_posts,
                  "board " + boards[b] + " holds every post sent to it");
    const std::vector<acp::Post> snapshot = reader.snapshot();
    record.expect(snapshot == reader.board().posts(),
                  "board " + boards[b] + " snapshot equals the joined mirror");
    acp::Rng pick(opt.seed + b);
    const std::uint64_t half = workload.batches / 2 + 1;
    for (std::size_t q = 0; q < 8; ++q) {
      // Half the samples on a voted object, half on any object.
      const acp::ObjectId object =
          q % 2 == 0 && !snapshot.empty()
              ? snapshot.front().object
              : acp::ObjectId(static_cast<std::size_t>(
                    pick.uniform_below(workload.objects)));
      const auto begin = static_cast<acp::Round>(pick.uniform_below(half));
      const auto end =
          static_cast<acp::Round>(half + pick.uniform_below(half));
      const acp::Count served = reader.votes_in_window(object, begin, end);
      ++sent;
      record.expect(served == plain_window_count(snapshot, workload.players,
                                                 object, begin, end),
                    "window query on " + boards[b] +
                        " equals a plain count over its snapshot");
    }
  }
  return sent;
}

/// One measured repetition of the swarm (runs in a child).
Record swarm_rep(const Options& opt, const SwarmWorkload& workload,
                 const CpuPlan& cpus, const std::vector<std::string>& boards,
                 std::size_t rep) {
  Record record;
  int serial = 0;
  // Set-up is starting the daemon, repeated like the simulations'.
  std::unique_ptr<Daemon> daemon;
  for (SetupWindow window; window.another();) {
    if (daemon) (void)daemon->stop();
    const auto setup_start = Clock::now();
    daemon = std::make_unique<Daemon>(
        opt.daemon,
        opt.socket_dir + "/e2e-" + std::to_string(getpid()) + "-" +
            std::to_string(serial++) + ".sock",
        workload.io_threads, workload.shards, cpus.daemon);
    record.add("setup_s", seconds_between(setup_start, Clock::now()));
  }

  acp::LoadgenOptions load;
  load.endpoint = acp::net::Endpoint::parse("socket:" + daemon->socket_path());
  load.clients = workload.clients;
  load.batches = workload.batches;
  load.batch_posts = workload.batch_posts;
  load.queries = workload.queries;
  load.players = workload.players;
  load.objects = workload.objects;
  load.board_list = boards;
  load.seed = opt.seed;
  load.pipeline = workload.pipeline;
  load.threads = 1;

  const std::uint64_t commits = workload.clients * workload.batches;
  const std::uint64_t posts = commits * workload.batch_posts;
  const std::uint64_t queries = workload.clients * workload.queries;

  const Usage usage_before = self_usage();
  const auto trial_start = Clock::now();
  const acp::LoadgenReport report = acp::run_loadgen(load);
  const double trial_s = seconds_between(trial_start, Clock::now());
  const Usage usage = self_usage() - usage_before;
  const DaemonSample sample = sample_daemon(daemon->pid());
  record.attempted = commits + queries;
  record.failed = report.errors;

  record.expect(report.errors == 0, "loadgen saw no errors");
  record.expect(report.clients_connected == workload.clients,
                "every client connected");
  record.expect(report.posts == posts, "loadgen posted every batch");
  record.expect(report.queries == queries, "loadgen answered every query");

  // Board contents are read back on the first repetition only: joining a
  // board pulls its whole log.
  const std::uint64_t verify_queries =
      rep == 0 ? verify_boards(record, opt, workload, load.endpoint, boards)
               : 0;

  const DaemonStats stats = daemon->stop();
  record.expect(stats.commits == commits,
                "daemon commits equal what the loadgen sent");
  record.expect(stats.posts == posts,
                "daemon posts equal what the loadgen sent");
  record.expect(stats.queries == queries + verify_queries,
                "daemon queries equal what was sent");
  record.expect(stats.errors == 0, "daemon reported no errors");

  record.add("trial_s", trial_s);
  record.add("trial_cpu_s", usage.user_s + usage.sys_s + sample.cpu_s);
  record.add("posts_per_s", report.posts_per_sec);
  record.add("loadgen.query_p50_us",
             static_cast<double>(report.query_p50_ns) / 1e3);
  record.add("loadgen.query_p99_us",
             static_cast<double>(report.query_p99_ns) / 1e3);
  record.add("server_rss_mb", sample.rss_mb);
  record.add("process.user_s", usage.user_s);
  record.add("process.sys_s", usage.sys_s);
  record.add("process.minflt", static_cast<double>(usage.minflt));
  record.add("server.cpu_s", sample.cpu_s);
  record.add("server.worker_cpu_max_s", sample.worker_cpu_max_s);
  record.add("server.worker_cpu_min_s", sample.worker_cpu_min_s);
  record.add("server.ctxsw", static_cast<double>(sample.ctxsw));
  record.add("server.forwarded", static_cast<double>(stats.forwarded));
  record.add("server.posts", static_cast<double>(stats.posts));
  record.add("server.queries", static_cast<double>(stats.queries));
  record.note = "loadgen " + number(trial_s) + " s, " +
                number(report.posts_per_sec) + " posts/s, query p50 " +
                number(static_cast<double>(report.query_p50_ns) / 1e3) +
                " us, p99 " +
                number(static_cast<double>(report.query_p99_ns) / 1e3) +
                " us, forwarded " + std::to_string(stats.forwarded);
  return record;
}

// -- The run ----------------------------------------------------------------

/// Everything a run accumulates across its repetitions.
class RunTotals {
 public:
  void add(const std::string& label, const Record& record,
           double peak_rss_mb) {
    std::cout << "# " << label << ": " << record.note << "\n";
    for (const auto& [name, value] : record.samples) {
      samples_[name].push_back(value);
    }
    samples_["peak_rss_mb"].push_back(peak_rss_mb);
    checks_ += record.checks;
    for (const std::string& failure : record.failures) fail(label, failure);
    attempted_ += record.attempted;
    failed_ += record.failed;
  }

  void fail(const std::string& label, const std::string& what) {
    ++checks_;
    failures_.push_back(label + ": " + what);
    std::cout << "# CHECK FAILED: " << label << ": " << what << "\n";
  }
  void expect(bool ok, const std::string& what) {
    if (ok) {
      ++checks_;
    } else {
      fail("run", what);
    }
  }

  /// Median over repetitions; a metric never sampled reads 0.
  [[nodiscard]] double value(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return samples_.count(name) != 0;
  }
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] std::size_t checks() const noexcept { return checks_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::vector<std::string> failures_;
  std::size_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void run_sim_workload(const Options& opt, const SimWorkload& workload,
                      RunTotals& totals) {
  acp::scenario::ScenarioSpec spec;
  spec.n = workload.n;
  spec.m = workload.n;
  spec.good = 1;
  spec.alpha = 0.9;
  spec.protocol = "distill";
  spec.adversary = workload.adversary;
  spec.engine_threads = workload.engine_threads;
  spec.seed = opt.seed;
  spec.validate();

  const CpuPlan cpus = plan_cpus(workload.remote ? 1 : 0);
  pin_self(cpus.harness);
  std::cout << "# cpus harness=" << cpu_list(cpus.harness);
  if (workload.remote) {
    std::cout << " daemon=" << cpu_list(cpus.daemon)
              << (cpus.disjoint ? "" : " (shared: too few CPUs to split)");
  }
  std::cout << "\n# n=m=" << spec.n << " alpha=" << spec.alpha
            << " good=" << spec.good << " adversary=" << spec.adversary
            << " engine_threads=" << spec.engine_threads
            << " backend=" << (workload.remote ? "daemon" : "inproc")
            << " seed=" << opt.seed << "\n";

  std::optional<std::uint64_t> first_digest;
  RepClock reps(opt.seconds);
  for (std::size_t rep = 0; reps.another(); ++rep) {
    double peak_rss_mb = 0.0;
    const double ref_s = reference_s(spec.engine_threads);
    Record record = run_in_child(
        [&] { return sim_rep(opt, spec, workload, cpus, rep); }, peak_rss_mb);
    record.add("ref_s", ref_s);
    record.note += ", ref " + number(ref_s) + " s";
    totals.add("rep " + std::to_string(rep), record, peak_rss_mb);
    if (!first_digest) first_digest = record.digest;
    totals.expect(record.digest == *first_digest,
                  "rep " + std::to_string(rep) +
                      " returns the RunResult of rep 0");
  }

  // One reference trial in the opposite tracing mode, on the sequential
  // in-process path: traced == untraced, t2 == t1 and remote == in-process
  // all pin to the measured result.
  double reference_rss = 0.0;
  const Record reference =
      run_in_child([&] { return sim_reference(opt, spec); }, reference_rss);
  for (const std::string& failure : reference.failures) {
    totals.fail("reference", failure);
  }
  totals.expect(reference.digest == first_digest,
                std::string("measured trials equal the ") +
                    (opt.trace ? "untraced" : "traced") +
                    " sequential in-process trial of the same seed");
}

void run_swarm_workload(const Options& opt, const SwarmWorkload& workload,
                        RunTotals& totals) {
  const CpuPlan cpus = plan_cpus(workload.io_threads);
  pin_self(cpus.harness);
  const std::vector<std::string> boards = swarm_board_names(workload);
  std::cout << "# cpus harness=" << cpu_list(cpus.harness)
            << " daemon=" << cpu_list(cpus.daemon)
            << (cpus.disjoint ? "" : " (shared: too few CPUs to split)")
            << "\n# clients=" << workload.clients
            << " boards=" << workload.boards
            << " pipeline=" << workload.pipeline
            << " batch_posts=" << workload.batch_posts
            << " batches=" << workload.batches
            << " queries=" << workload.queries
            << " io_threads=" << workload.io_threads
            << " shards=" << workload.shards << " seed=" << opt.seed << "\n";

  RepClock reps(opt.seconds);
  for (std::size_t rep = 0; reps.another(); ++rep) {
    double peak_rss_mb = 0.0;
    const double ref_s = reference_s(1);  // the loadgen runs one thread
    Record record = run_in_child(
        [&] { return swarm_rep(opt, workload, cpus, boards, rep); },
        peak_rss_mb);
    record.add("ref_s", ref_s);
    record.note += ", ref " + number(ref_s) + " s";
    totals.add("rep " + std::to_string(rep), record, peak_rss_mb);
  }
}

// -- Reporting --------------------------------------------------------------

int report(const Options& opt, const RunTotals& totals) {
  std::ostringstream json;
  json << "{\"correct\": " << (totals.ok() ? "true" : "false")
       << ", \"attempted\": " << totals.attempted()
       << ", \"failed\": " << totals.failed() << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& metric, double value) {
    std::cout << metric.name << " = " << number(value) << " " << metric.unit
              << "\n";
    json << (first ? "" : ", ") << "\"" << metric.name
         << "\": {\"value\": " << number(value) << ", \"unit\": \""
         << metric.unit << "\"}";
    first = false;
  };
  if (opt.trace) {
    for (const MetricSpec& metric : kPerLayer) {
      emit(metric, totals.value(metric.name));
    }
    // The traced trial time, for the tracing-overhead comparison.
    std::cout << "# traced trial_s = " << number(totals.value("trial_s"))
              << " s\n";
  } else {
    for (const MetricSpec& metric : kEndToEnd) {
      std::string name = metric.name;
      if (name == "trial_vs_ref") {
        // Both medians are over the same repetitions, so the host's speed
        // during the run divides out.
        emit(metric, totals.value("trial_s") / totals.value("ref_s"));
        continue;
      }
      // In process, the billboard lives in the trial process itself.
      if (name == "server_rss_mb" && !totals.has(name)) name = "peak_rss_mb";
      if (!totals.has(name)) {
        throw std::logic_error(std::string("metric ") + metric.name +
                               " was not measured");
      }
      emit(metric, totals.value(name));
    }
    for (const MetricSpec& metric : kRawTimes) {
      std::cout << "# raw, not gated: " << metric.name << " = "
                << number(totals.value(metric.name)) << " " << metric.unit
                << "\n";
    }
  }
  std::cout << "# checks: " << totals.checks() << " run, "
            << (totals.ok() ? "all passed" : "SOME FAILED") << "\n";
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

int run(const Options& opt) {
  RunTotals totals;
  if (opt.workload == "distill_1m_t2") {
    run_sim_workload(
        opt, {opt.toy ? 4'000u : 1'000'000u, "silent", 2, false},
        totals);
  } else if (opt.workload == "distill_eager_100k_t1") {
    run_sim_workload(
        opt, {opt.toy ? 2'000u : 100'000u, "eager", 1, false},
        totals);
  } else if (opt.workload == "distill_remote_1m_t2") {
    run_sim_workload(
        opt, {opt.toy ? 4'000u : 1'000'000u, "silent", 2, true},
        totals);
  } else if (opt.workload == "bbload_sharded_pipe16") {
    SwarmWorkload workload;
    if (opt.toy) {
      workload.batches = 200;
      workload.queries = 20;
    }
    run_swarm_workload(opt, workload, totals);
  } else {
    usage_error("unknown workload " + opt.workload +
                " (distill_1m_t2, distill_eager_100k_t1, "
                "distill_remote_1m_t2, bbload_sharded_pipe16)");
  }
  return report(opt, totals);
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::run(e2ebench::parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "e2ebench: " << error.what() << "\n";
    return 1;
  }
}
