// Shared helpers for the experiment-reproduction binaries: consistent table
// printing, paper-vs-measured reporting, and the host stamp of BENCH files.
#ifndef FLASHPS_BENCH_BENCH_UTIL_H_
#define FLASHPS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace flashps::bench {

inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// Instruction set the binary was compiled for: the architecture plus the
// widest vector extension enabled at build time (-march=native adds it).
inline std::string IsaName() {
#if defined(__x86_64__)
  std::string isa = "x86-64";
#elif defined(__aarch64__)
  std::string isa = "aarch64";
#else
  std::string isa = "unknown";
#endif
#if defined(__AVX512F__)
  isa += "+avx512f";
#elif defined(__AVX2__)
  isa += "+avx2";
#endif
  return isa;
}

// Revision of the working tree the bench runs in ("-dirty" when it has
// uncommitted changes); "unknown" outside a git checkout.
inline std::string GitRevision() {
  std::string rev;
  if (FILE* pipe = ::popen(
          "git describe --always --dirty --abbrev=12 2>/dev/null", "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      rev += buf;
    }
    ::pclose(pipe);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == ' ')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

// `"hardware_threads":N,"isa":"...","git_sha":"..."` — the fields that pin
// a BENCH_*.json to the machine and revision that recorded it.
inline std::string HostStampJson() {
  return "\"hardware_threads\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"isa\":\"" + IsaName() + "\",\"git_sha\":\"" + GitRevision() +
         "\"";
}

}  // namespace flashps::bench

#endif  // FLASHPS_BENCH_BENCH_UTIL_H_
