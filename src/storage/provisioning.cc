#include "storage/provisioning.h"

#include <cassert>
#include <cmath>
#include <vector>

#include "common/strings.h"

namespace hyperprof::storage {

namespace {
// The midpoint-corrected integral tail is accurate to ~1e-11 relative
// beyond ten thousand exact terms for every skew used here, so a small
// exact head keeps provisioning queries fast.
constexpr uint64_t kExactTerms = 10000;

// Adds the terms of H(k, s) past a `head`-term exact sum to `sum`, with the
// midpoint-corrected integral tail:
//   sum_{i=head+1..k} i^-s ~= integral_{head+0.5}^{k+0.5} x^-s dx.
double AddHarmonicTail(double sum, uint64_t head, uint64_t k, double s) {
  if (k <= head) return sum;
  double a = static_cast<double>(head) + 0.5;
  double b = static_cast<double>(k) + 0.5;
  if (std::fabs(s - 1.0) < 1e-12) {
    sum += std::log(b / a);
  } else {
    sum += (std::pow(b, 1.0 - s) - std::pow(a, 1.0 - s)) / (1.0 - s);
  }
  return sum;
}

}  // namespace

double GeneralizedHarmonic(uint64_t k, double s) {
  if (k == 0) return 0.0;
  uint64_t head = k < kExactTerms ? k : kExactTerms;
  double sum = 0.0;
  for (uint64_t i = 1; i <= head; ++i) {
    sum += std::pow(static_cast<double>(i), -s);
  }
  return AddHarmonicTail(sum, head, k, s);
}

double ZipfMassFraction(uint64_t k, uint64_t n, double s) {
  assert(n > 0);
  if (k >= n) return 1.0;
  return GeneralizedHarmonic(k, s) / GeneralizedHarmonic(n, s);
}

uint64_t MinKeysForMass(double target_mass, uint64_t n, double s) {
  assert(n > 0);
  if (target_mass <= 0) return 0;
  if (target_mass >= 1.0) return n;
  // ZipfMassFraction(k, n, s) at every bisection step, bit for bit, with
  // the exact head summed once: prefix[h] is the running sum of the first
  // h terms in GeneralizedHarmonic's order, and H(n, s) is computed once.
  const uint64_t head_terms = n < kExactTerms ? n : kExactTerms;
  std::vector<double> prefix(head_terms + 1, 0.0);
  for (uint64_t i = 1; i <= head_terms; ++i) {
    prefix[i] = prefix[i - 1] + std::pow(static_cast<double>(i), -s);
  }
  const auto harmonic = [&](uint64_t k) {
    const uint64_t head = k < kExactTerms ? k : kExactTerms;
    return AddHarmonicTail(prefix[head], head, k, s);
  };
  const double total = harmonic(n);
  uint64_t lo = 1, hi = n;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (harmonic(mid) / total >= target_mass) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::string TierSizes::RatioString() const {
  return StrFormat("1 : %.0f : %.0f", SsdPerRam(), HddPerRam());
}

TierSizes ProvisionForProfile(const StorageProfile& profile) {
  assert(profile.num_keys > 0);
  assert(profile.ram_hit_target <= profile.ram_ssd_hit_target);
  const double dataset_bytes =
      static_cast<double>(profile.num_keys) * profile.avg_object_bytes;

  uint64_t ram_keys =
      MinKeysForMass(profile.ram_hit_target, profile.num_keys, profile.zipf_s);
  uint64_t ram_ssd_keys = MinKeysForMass(profile.ram_ssd_hit_target,
                                         profile.num_keys, profile.zipf_s);

  TierSizes sizes;
  sizes.ram_bytes = static_cast<double>(ram_keys) * profile.avg_object_bytes *
                    (1.0 + profile.write_buffer_fraction);
  sizes.ssd_bytes =
      static_cast<double>(ram_ssd_keys) * profile.avg_object_bytes;
  sizes.hdd_bytes = dataset_bytes * profile.replication;
  return sizes;
}

}  // namespace hyperprof::storage
