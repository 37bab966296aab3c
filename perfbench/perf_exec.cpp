// perf_exec: runs one command and reports what it cost the host.
//
//   perf_exec RESULT_FILE PROGRAM [ARGS...]
//
// Runs PROGRAM with the caller's cwd, stdin, stdout and stderr, waits for
// it, and writes one line to RESULT_FILE:
//
//   exit=<code> wall_s=<s> cpu_s=<s> maxrss_kb=<kB> wchar=<bytes> steal_s=<s>
//
// exit is the exit code, or 128 + the signal number. wchar is the
// kernel's count of bytes the process wrote (/proc/PID/io), read after it
// exited and before it is reaped. steal_s is the CPU time a hypervisor
// took from this machine's CPUs while the command ran, summed over CPUs
// (the steal column of /proc/stat; 0 outside a VM).
//
// A small launcher exists because Linux carries the peak RSS of the
// process that calls exec into the child's ru_maxrss: spawned straight from
// the benchmark's Python interpreter, every command would report at least
// the interpreter's RSS.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

namespace {

// Total steal time of all CPUs so far, in seconds.
double steal_seconds() {
  unsigned long long v[8] = {};
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perf_exec RESULT_FILE PROGRAM [ARGS...]\n");
    return 2;
  }
  const double steal0 = steal_seconds();
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perf_exec: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("perf_exec: exec");
    _exit(127);
  }
  siginfo_t info{};
  if (waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) != 0) {
    std::perror("perf_exec: waitid");
    return 2;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double steal_s = steal_seconds() - steal0;
  unsigned long long wchar = 0;
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/io", static_cast<int>(pid));
  if (std::FILE* io = std::fopen(path, "r")) {
    char line[128];
    while (std::fgets(line, sizeof(line), io) != nullptr) {
      if (std::sscanf(line, "wchar: %llu", &wchar) == 1) break;
    }
    std::fclose(io);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) {
    std::perror("perf_exec: wait4");
    return 2;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  const double cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("perf_exec: result file");
    return 2;
  }
  std::fprintf(out,
               "exit=%d wall_s=%.9f cpu_s=%.6f maxrss_kb=%ld wchar=%llu "
               "steal_s=%.2f\n",
               code, wall_s, cpu_s, ru.ru_maxrss, wchar, steal_s);
  return std::fclose(out) == 0 ? 0 : 2;
}
