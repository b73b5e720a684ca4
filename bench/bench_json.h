// JSON emitter for the machine-readable benchmark artifacts
// (BENCH_*.json): a thin pretty-printing adapter over ust::JsonWriter
// (util/stats.h), so every JSON producer in the tree shares one code path
// for escaping, empty arrays and comma placement. Flat object of
// string/number fields plus one level of nested objects — enough for perf
// tracking across PRs, no dependency.
#pragma once

#include <cstdio>
#include <string>
#include <thread>

#include "util/simd.h"
#include "util/stats.h"

namespace ust::bench {

/// \brief Accumulates key/value pairs and writes them as a JSON object.
class JsonWriter {
 public:
  void Add(const std::string& key, double value) { writer_.Double(key, value); }
  void Add(const std::string& key, const std::string& value) {
    writer_.String(key, value);
  }
  /// The hardware shape a run measured (`hw_threads`, `simd`): ratios such
  /// as lane or steal speedups depend on it, so tools/check_bench.py treats
  /// a mismatch with the baseline as a config mismatch, not a perf result.
  void AddHardwareShape() {
    Add("hw_threads",
        static_cast<double>(std::thread::hardware_concurrency()));
    Add("simd", std::string(SimdLevelName(ActiveSimdLevel())));
  }
  /// Nested object: emitted verbatim (caller renders it with another writer).
  void AddObject(const std::string& key, const std::string& rendered) {
    writer_.Raw(key, rendered);
  }

  /// One "key": value per line, two-space indent — the BENCH house style.
  std::string Render() const { return writer_.Render(/*pretty=*/true); }

  /// Write to `path`; returns false on IO failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string out = Render();
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    return true;
  }

 private:
  ust::JsonWriter writer_;
};

}  // namespace ust::bench
