/**
 * @file
 * Binary encoding of experiment results for the shared-memory memo
 * cache (serve/shm_cache.hh).
 *
 * The encoding is a fixed little-endian byte layout (not host struct
 * dumps) so tools/bench_diff.py can decode segments offline with the
 * struct module. It round-trips exactly the fields the BENCH report
 * needs — workload/config/protocol labels, cycle counts, verification
 * flag, the host seconds measured when the experiment originally ran,
 * and the full metrics snapshot. Traces and per-processor vectors are
 * deliberately excluded: cached replays serve reports, not trace
 * viewers.
 *
 * Layout (u32/u64/f64 little-endian; str = u32 length + raw bytes):
 *
 *   result: u32 magic 'SWR1', str workload, str config, str protocol,
 *           u64 parallelCycles, u64 sequentialCycles, u8 verified,
 *           f64 hostSeconds,
 *           u32 nCounters x { str name, u64 value },
 *           u32 nGauges   x { str name, f64 value },
 *           u32 nHistograms x { str name, u64 total,
 *                               u32 nBuckets x u64 count }
 *   baseline: u32 magic 'SWB1', u64 cycles
 *
 * schemaVersion is stamped into the segment header (keySchema); any
 * layout change here must bump it so stale segments rebuild instead of
 * misdecoding. A change to the set of metrics a run registers must bump
 * it too: a result blob stores the full metrics snapshot, but the memo
 * key does not name the registered metrics, so an old segment would
 * replay counters a fresh run no longer emits (or lack new ones).
 */

#ifndef SWSM_SERVE_RESULT_CODEC_HH
#define SWSM_SERVE_RESULT_CODEC_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "harness/experiment.hh"

namespace swsm::codec
{

/**
 * Bumped on any byte-layout change or registered-metric-set change
 * (segment keySchema).
 */
constexpr std::uint32_t schemaVersion = 2;

std::string encodeResult(const ExperimentResult &r);
/** @return false (out untouched on magic mismatch) on malformed blobs */
bool decodeResult(std::string_view blob, ExperimentResult &out);

std::string encodeBaseline(Cycles seq);
bool decodeBaseline(std::string_view blob, Cycles &out);

/** True when @p blob carries the result (not baseline) magic. */
bool isResultBlob(std::string_view blob);

} // namespace swsm::codec

#endif // SWSM_SERVE_RESULT_CODEC_HH
