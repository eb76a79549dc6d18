#include "resacc/util/fault_injection.h"

#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>

#include "resacc/util/env.h"

namespace resacc {
namespace {

// 64-bit FNV-1a over the site name: stable across platforms so a chaos
// seed reproduces the same fault schedule everywhere.
std::uint64_t HashSite(const char* site) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = site; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct SiteState {
  double probability = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t failures = 0;
};

struct Registry {
  std::mutex mutex;
  std::uint64_t seed = 1;
  double default_probability = 0.0;
  std::unordered_map<std::string, SiteState> sites;
};

// Leaked so sites hit during static destruction stay safe.
Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

// Runs InitFromEnv before main() so RESACC_FAULTS=1 arms spawned tools
// (a `RESACC_FAULTS=1 ...` prefix in bench_workload --serve-cmd relies on
// this) without any code change.
const bool kEnvInitDone = [] {
  FaultInjection::InitFromEnv();
  return true;
}();

}  // namespace

std::atomic<bool> FaultInjection::enabled_{false};

void FaultInjection::Arm(std::uint64_t seed, double probability) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.seed = seed;
  registry.default_probability = probability;
  registry.sites.clear();
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjection::ArmSite(const char* site, double probability) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  SiteState& state = registry.sites[site];
  state.probability = probability;
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjection::Disarm() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  enabled_.store(false, std::memory_order_relaxed);
  registry.default_probability = 0.0;
  registry.sites.clear();
}

bool FaultInjection::ShouldFail(const char* site) {
  if (!enabled()) return false;
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto [it, inserted] = registry.sites.try_emplace(site);
  SiteState& state = it->second;
  if (inserted) state.probability = registry.default_probability;
  const std::uint64_t hit = state.hits++;
  if (state.probability <= 0.0) return false;
  const std::uint64_t draw =
      SplitMix64(registry.seed ^ HashSite(site) ^ hit);
  // draw / 2^64 < probability, computed without floating the 64-bit draw.
  const bool fail =
      state.probability >= 1.0 ||
      draw < static_cast<std::uint64_t>(
                 state.probability *
                 18446744073709551616.0 /* 2^64 */);
  if (fail) ++state.failures;
  return fail;
}

std::uint64_t FaultInjection::Hits(const char* site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.sites.find(site);
  return it == registry.sites.end() ? 0 : it->second.hits;
}

std::uint64_t FaultInjection::Failures(const char* site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.sites.find(site);
  return it == registry.sites.end() ? 0 : it->second.failures;
}

void FaultInjection::InitFromEnv() {
  // Unset = leave the current state alone (so re-applying after a test
  // armed programmatically is a no-op); an explicit value arms on 1 and
  // disarms on anything else.
  const std::string armed = GetEnvString("RESACC_FAULTS", "");
  if (armed.empty()) return;
  if (armed != "1") {
    Disarm();
    return;
  }
  Arm(static_cast<std::uint64_t>(GetEnvInt("RESACC_FAULT_SEED", 1)),
      GetEnvDouble("RESACC_FAULT_PROB", 0.05));
}

}  // namespace resacc
