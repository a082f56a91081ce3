#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + stream * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  errors_.push_back(what);
  std::cerr << "CHECK FAILED: " << what << std::endl;
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + Escaped(metrics_[i].name) + "\": {\"value\": " +
           Number(metrics_[i].value) + ", \"unit\": \"" +
           Escaped(metrics_[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::string Report::Table() const {
  std::string out;
  char buf[256];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof(buf), "  %-32s %16.6g  %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

std::string HostFingerprintJson() {
  std::string out = "{\"cores\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu_model\": \"" + Escaped(CpuModel()) + "\"";
  out += ", \"simd_active\": \"" +
         std::string(treeserver::SimdLevelName(treeserver::ActiveSimdLevel())) +
         "\"";
  out += ", \"simd_detected\": \"" +
         std::string(
             treeserver::SimdLevelName(treeserver::DetectedSimdLevel())) +
         "\"";
  out += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  out += ", \"compiler\": \"" + Escaped(compiler) + "\"}";
  return out;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
