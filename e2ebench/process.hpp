// Process plumbing for the harness: CPU placement, /proc readers and the
// billboard daemon as a child process.
//
// The daemon is always a separate process started from the project's own
// acp_billboardd binary, pinned to CPUs disjoint from the harness. Daemon
// owns its lifetime: the destructor stops the child and removes its socket
// whether the run finished or a check threw, and the child is asked to die
// with the harness (PR_SET_PDEATHSIG) should the harness itself be killed.
#pragma once

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace e2ebench {

// -- CPU placement ----------------------------------------------------------

inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

inline void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

inline std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

/// Harness and daemon CPU sets: the daemon takes the last `daemon_cpus` of
/// the allowed CPUs, the harness the rest. With too few CPUs to split, both
/// share everything (reported as such).
struct CpuPlan {
  std::vector<int> harness;
  std::vector<int> daemon;
  bool disjoint = true;
};

inline CpuPlan plan_cpus(std::size_t daemon_cpus) {
  const std::vector<int> cpus = allowed_cpus();
  CpuPlan plan;
  if (daemon_cpus == 0) {
    plan.harness = cpus;
    return plan;
  }
  if (cpus.size() <= daemon_cpus) {
    plan.harness = cpus;
    plan.daemon = cpus;
    plan.disjoint = false;
    return plan;
  }
  const auto split = cpus.end() - static_cast<std::ptrdiff_t>(daemon_cpus);
  plan.harness.assign(cpus.begin(), split);
  plan.daemon.assign(split, cpus.end());
  return plan;
}

// -- /proc readers ----------------------------------------------------------

inline double clock_ticks_per_s() {
  return static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// utime + stime of a /proc/<pid>[/task/<tid>]/stat file, in seconds.
inline double stat_cpu_seconds(const std::string& stat_path) {
  std::ifstream in(stat_path);
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  for (int index = 3; rest >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  return static_cast<double>(utime + stime) / clock_ticks_per_s();
}

/// "Key:   value kB" fields of a /proc status file.
inline std::map<std::string, std::uint64_t> status_fields(
    const std::string& status_path) {
  std::map<std::string, std::uint64_t> fields;
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::istringstream value(line.substr(colon + 1));
    std::uint64_t number = 0;
    if (value >> number) fields[line.substr(0, colon)] = number;
  }
  return fields;
}

inline double vm_hwm_mb(const std::string& proc_dir) {
  const auto fields = status_fields(proc_dir + "/status");
  const auto it = fields.find("VmHWM");
  return it == fields.end() ? 0.0 : static_cast<double>(it->second) / 1024.0;
}

/// What the harness reads of the daemon after the measured load.
struct DaemonSample {
  double rss_mb = 0.0;         ///< VmHWM
  double cpu_s = 0.0;          ///< whole process, user + system
  double worker_cpu_max_s = 0.0;
  double worker_cpu_min_s = 0.0;
  std::uint64_t ctxsw = 0;     ///< voluntary + involuntary, all threads
};

/// Workers are every thread but the main one, which only waits for the
/// shutdown signal.
inline DaemonSample sample_daemon(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid);
  DaemonSample sample;
  sample.rss_mb = vm_hwm_mb(dir);
  sample.cpu_s = stat_cpu_seconds(dir + "/stat");
  bool first_worker = true;
  if (DIR* tasks = opendir((dir + "/task").c_str())) {
    while (const dirent* entry = readdir(tasks)) {
      const std::string tid = entry->d_name;
      if (tid == "." || tid == "..") continue;
      const std::string task = dir + "/task/" + tid;
      const auto fields = status_fields(task + "/status");
      for (const char* key :
           {"voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"}) {
        const auto it = fields.find(key);
        if (it != fields.end()) sample.ctxsw += it->second;
      }
      if (tid == std::to_string(pid)) continue;
      const double cpu = stat_cpu_seconds(task + "/stat");
      if (first_worker || cpu > sample.worker_cpu_max_s) {
        sample.worker_cpu_max_s = cpu;
      }
      if (first_worker || cpu < sample.worker_cpu_min_s) {
        sample.worker_cpu_min_s = cpu;
      }
      first_worker = false;
    }
    closedir(tasks);
  }
  return sample;
}

/// getrusage(RUSAGE_SELF) in the units the metrics use.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t minflt = 0;
};

inline Usage self_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return Usage{seconds(usage.ru_utime), seconds(usage.ru_stime),
               static_cast<std::uint64_t>(usage.ru_minflt)};
}

inline Usage operator-(const Usage& a, const Usage& b) {
  return Usage{a.user_s - b.user_s, a.sys_s - b.sys_s, a.minflt - b.minflt};
}

// -- The daemon -------------------------------------------------------------

/// acp_billboardd's shutdown counters, parsed from its stats line.
struct DaemonStats {
  std::uint64_t commits = 0;
  std::uint64_t posts = 0;
  std::uint64_t queries = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t errors = 0;
};

class Daemon {
 public:
  /// Start `binary` listening on the Unix socket `socket_path`, pinned to
  /// `cpus`, and return once it reports that it is listening.
  Daemon(const std::string& binary, const std::string& socket_path,
         std::size_t io_threads, std::size_t shards,
         const std::vector<int>& cpus)
      : socket_path_(socket_path) {
    ::unlink(socket_path_.c_str());
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    const std::vector<std::string> args = {
        binary,         "--listen",
        "socket:" + socket_path, "--io-threads",
        std::to_string(io_threads), "--shards",
        std::to_string(shards)};
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);

    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      sched_setaffinity(0, sizeof(set), &set);
      dup2(fds[1], STDERR_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
    ::close(fds[1]);
    stderr_fd_ = fds[0];
    const std::string line = read_line(std::chrono::seconds(20));
    if (line.find("listening on") == std::string::npos) {
      // The destructor does not run for a constructor that throws.
      const std::string rest = read_rest(std::chrono::milliseconds(200));
      kill_now();
      throw std::runtime_error("acp_billboardd did not start: " + line +
                               rest);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  ~Daemon() {
    try {
      (void)stop();
    } catch (...) {
      kill_now();
    }
  }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return socket_path_;
  }

  /// SIGKILL and reap without collecting anything (failure paths).
  void kill_now() noexcept {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (stderr_fd_ >= 0) ::close(stderr_fd_);
    stderr_fd_ = -1;
    ::unlink(socket_path_.c_str());
  }

  /// SIGTERM, collect the stats line, reap the child, remove the socket.
  /// Idempotent; throws if the daemon did not exit cleanly.
  DaemonStats stop() {
    if (pid_ <= 0) return stats_;
    ::kill(pid_, SIGTERM);
    const std::string tail = read_rest(std::chrono::seconds(20));
    int status = 0;
    if (!reap(std::chrono::seconds(5), status)) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    ::close(stderr_fd_);
    stderr_fd_ = -1;
    ::unlink(socket_path_.c_str());
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("acp_billboardd exited abnormally: " + tail);
    }
    stats_ = parse_stats(tail);
    return stats_;
  }

 private:
  static std::uint64_t field(const std::string& text, const std::string& key) {
    const std::size_t at = text.rfind(" " + key + "=");
    const std::size_t at_open = text.rfind("(" + key + "=");
    const std::size_t pos = at != std::string::npos ? at : at_open;
    if (pos == std::string::npos) {
      throw std::runtime_error("acp_billboardd stats line lacks " + key +
                               ": " + text);
    }
    return std::stoull(text.substr(pos + key.size() + 2));
  }

  static DaemonStats parse_stats(const std::string& text) {
    DaemonStats stats;
    stats.commits = field(text, "commits");
    stats.posts = field(text, "posts");
    stats.queries = field(text, "queries");
    stats.forwarded = field(text, "forwarded");
    stats.errors = field(text, "errors");
    return stats;
  }

  /// Read up to and including the first newline (or EOF / timeout).
  std::string read_line(std::chrono::milliseconds timeout) {
    std::string line;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    char c = 0;
    while (wait_readable(deadline)) {
      const ssize_t n = ::read(stderr_fd_, &c, 1);
      if (n <= 0) break;
      if (c == '\n') break;
      line += c;
    }
    return line;
  }

  std::string read_rest(std::chrono::milliseconds timeout) {
    std::string text;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    char buf[4096];
    while (wait_readable(deadline)) {
      const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    }
    return text;
  }

  bool wait_readable(std::chrono::steady_clock::time_point deadline) {
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{stderr_fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (rc > 0) return true;
      if (rc == 0) return false;
      if (errno != EINTR) return false;
    }
  }

  bool reap(std::chrono::milliseconds timeout, int& status) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) return true;
      ::usleep(1000);
    }
    return false;
  }

  std::string socket_path_;
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  DaemonStats stats_;
};

}  // namespace e2ebench
