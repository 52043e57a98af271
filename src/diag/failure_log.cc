#include "diag/failure_log.h"

#include <algorithm>

namespace m3dfl {

std::int32_t FailureLog::num_failing_patterns() const {
  std::vector<std::int32_t> patterns;
  failing_patterns(*this, &patterns);
  return static_cast<std::int32_t>(patterns.size());
}

std::int32_t FailureLog::num_failing_bits() const {
  return static_cast<std::int32_t>(scan_fails.size() + channel_fails.size() +
                                   po_fails.size());
}

FailureLog make_failure_log(const std::vector<Observation>& raw,
                            const ScanChains& chains,
                            const XorCompactor* compactor) {
  FailureLog log;
  make_failure_log(raw, chains, compactor, &log);
  return log;
}

void make_failure_log(const std::vector<Observation>& raw,
                      const ScanChains& chains, const XorCompactor* compactor,
                      FailureLog* out) {
  FailureLog& log = *out;
  log.compacted = compactor != nullptr;
  log.scan_fails.clear();
  log.channel_fails.clear();
  log.po_fails.clear();
  log.pattern_limit = 0;
  if (!log.compacted) {
    const auto pos = static_cast<std::size_t>(std::count_if(
        raw.begin(), raw.end(), [](const Observation& o) { return o.at_po; }));
    log.po_fails.reserve(pos);
    log.scan_fails.reserve(raw.size() - pos);
    for (const Observation& o : raw) {
      (o.at_po ? log.po_fails : log.scan_fails).push_back(o);
    }
    return;
  }

  // XOR compaction: a channel bit fails iff an odd number of the aliased
  // scan cells differ from the good response.
  std::vector<ChannelFail>& bits = log.channel_fails;
  for (const Observation& o : raw) {
    if (o.at_po) {
      log.po_fails.push_back(o);
      continue;
    }
    const std::int32_t chain = chains.chain_of_flop(o.index);
    bits.push_back(ChannelFail{o.pattern, compactor->channel_of_chain(chain),
                               chains.position_of_flop(o.index)});
  }
  std::sort(bits.begin(), bits.end());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < bits.size();) {
    std::size_t j = i + 1;
    while (j < bits.size() && bits[j] == bits[i]) ++j;
    if ((j - i) % 2 == 1) bits[kept++] = bits[i];
    i = j;
  }
  bits.resize(kept);
}

void failing_patterns(const FailureLog& log, std::vector<std::int32_t>* out) {
  out->clear();
  for (const Observation& o : log.scan_fails) out->push_back(o.pattern);
  for (const ChannelFail& c : log.channel_fails) out->push_back(c.pattern);
  for (const Observation& o : log.po_fails) out->push_back(o.pattern);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

FailureLog truncate_failure_log(FailureLog log,
                                std::int32_t max_failing_patterns) {
  if (max_failing_patterns <= 0) return log;
  std::vector<std::int32_t> patterns;
  failing_patterns(log, &patterns);
  truncate_failure_log(&log, max_failing_patterns, &patterns);
  // Returned logs are often stored (datagen samples): drop the capacity the
  // cut entries left behind.  A no-op for a tight log under the limit.
  log.scan_fails.shrink_to_fit();
  log.channel_fails.shrink_to_fit();
  log.po_fails.shrink_to_fit();
  return log;
}

void truncate_failure_log(FailureLog* log, std::int32_t max_failing_patterns,
                          std::vector<std::int32_t>* patterns) {
  if (max_failing_patterns <= 0) return;
  log->pattern_limit = max_failing_patterns;
  const auto limit = static_cast<std::size_t>(max_failing_patterns);
  if (patterns->size() <= limit) return;
  // Distinct failing patterns in test order; keep the first N.
  const std::int32_t cutoff = (*patterns)[limit - 1];
  patterns->resize(limit);
  const auto late = [cutoff](const auto& entry) {
    return entry.pattern > cutoff;
  };
  std::erase_if(log->scan_fails, late);
  std::erase_if(log->channel_fails, late);
  std::erase_if(log->po_fails, late);
}

}  // namespace m3dfl
