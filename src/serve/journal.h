// Write-ahead session journal: the durability substrate of crash-safe
// serving (docs/SERVING.md "Crash recovery").
//
// SessionManager appends one frame per state-mutating session event —
// session open, accepted stream record, resolution tombstone — *before*
// acknowledging the event to the caller, and fsyncs each frame, so a
// killed worker can rebuild every in-flight session by replaying what
// survived on disk.  Because diag::StreamingBacktrace::finalize() is
// byte-identical to the batch back-trace over the accepted records, a
// replayed session finalizes byte-identical to the uninterrupted run —
// recovery is provably exact, not best-effort.
//
// On-disk format (text, one directory of segments):
//
//   seg-000001.m3dflj:
//     m3dfl-journal 1
//     r <crc32:8 hex> <len> <payload>
//     r <crc32:8 hex> <len> <payload>
//     ...
//
// Each frame checksums exactly its payload bytes (util/checksum CRC32, the
// same polynomial every artifact trailer uses), and `len` pins the payload
// length so a torn tail cannot resynchronize on garbage.  Payload grammar:
//
//   open  <session_id> <wall_ms> <idle_ms> <life_ms> <design_name>
//   rec   <session_id> <wall_ms> <faillog body line, verbatim>
//   close <session_id> <wall_ms> finalized|expired|evicted
//
// Timestamps are wall-clock epoch milliseconds (injectable for tests):
// steady_clock does not survive a restart, and recovery must re-evaluate
// idle/lifetime deadlines across the crash.
//
// Failure semantics mirror util/artifact: a scan accepts the longest valid
// frame prefix of each segment and reports everything after it with a
// diagnostic citing the segment path and byte offset, expected-vs-found.
// Append-side I/O failures never fail a serving request — the journal
// degrades to non-durable (durable() == false, journal_append_failures
// counts) and rotates to a fresh segment so later events land cleanly.
//
// Compaction removes sealed segments in which every referenced session has
// a close tombstone somewhere in the directory (a closed session's records
// are garbage wherever they live; a `close` for an unknown session is a
// replay no-op, so dropping opens and closes together is safe).
#ifndef M3DFL_SERVE_JOURNAL_H_
#define M3DFL_SERVE_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/fault_injector.h"
#include "serve/metrics.h"
#include "util/limits.h"

namespace m3dfl::lint {
struct JournalFacts;  // lint/checks.h; callers of journal_lint_facts include it
}

namespace m3dfl::serve {

// Wall-clock epoch-milliseconds source; tests inject a fake so deadline
// accounting across a simulated crash is deterministic.
using WallClock = std::function<std::int64_t()>;

// The real wall clock (system_clock since epoch, in ms).
std::int64_t system_wall_ms();

struct JournalOptions {
  // Rotate to a fresh segment once the active one exceeds this many bytes.
  std::size_t max_segment_bytes = 64 * 1024;
  // Defaults to system_wall_ms when unset.
  WallClock wall_ms;
  // kJournalTornWrite / kJournalFsync / kJournalCorrupt seams; may be null.
  FaultInjector* injector = nullptr;
  // journal_appends / journal_append_failures / journal_rotations land
  // here; may be null.
  Metrics* metrics = nullptr;
};

// One decoded journal frame.
struct JournalRecord {
  enum class Type { kOpen, kRecord, kClose };
  Type type = Type::kRecord;
  std::uint64_t session_id = 0;
  std::int64_t wall_ms = 0;
  std::size_t offset = 0;  // byte offset of this frame in its segment
  // kOpen only.
  std::string design_name;
  double idle_deadline_ms = 0.0;
  double max_lifetime_ms = 0.0;
  // kRecord: the raw faillog body line, verbatim.  kClose: why the session
  // resolved ("finalized" / "expired" / "evicted").
  std::string text;
};

// One scanned segment: the longest valid frame prefix plus (when the tail
// was torn or corrupt) an offset-cited diagnostic for the rest.
struct SegmentScan {
  std::string path;
  std::vector<JournalRecord> records;
  std::string diagnostic;      // empty when the whole segment parsed
  std::size_t valid_bytes = 0; // bytes covered by header + valid prefix
  std::size_t total_bytes = 0;
};

// Journal state reassembled from every segment of a directory, in segment
// then frame order.
struct JournalReplay {
  std::vector<SegmentScan> segments;
  // Sessions with an `open` and no `close`, each carrying its replayable
  // record lines in arrival order.
  struct LiveSession {
    std::uint64_t id = 0;
    std::string design_name;
    std::int64_t opened_wall_ms = 0;
    std::int64_t last_wall_ms = 0;
    double idle_deadline_ms = 0.0;
    double max_lifetime_ms = 0.0;
    std::vector<std::string> lines;
  };
  std::vector<LiveSession> live;
  // Scan diagnostics plus semantic findings (duplicate tombstone, record
  // for an unopened session), every one citing segment path + byte offset.
  std::vector<std::string> diagnostics;
  std::size_t records = 0;         // valid frames across all segments
  std::size_t closed_sessions = 0; // sessions with a tombstone
  // Highest session id referenced by any valid frame — opens, records, and
  // closes alike, including tombstones whose open was compacted away.
  // recover() seeds the manager's id counter past this so a restarted
  // manager never reissues a journaled id (a reused id's `open` would be
  // rejected as a duplicate of the existing tombstone on the *next*
  // recovery, silently losing every post-restart session).
  std::uint64_t max_session_id = 0;
};

// Append-side writer.  NOT thread-safe: SessionManager serializes appends
// under its session-table mutex (append-before-ack is a per-event ordering
// guarantee, so the table lock is the natural serialization point).
class SessionJournal {
 public:
  // Creates `dir` if needed and opens the highest-numbered segment for
  // append (or seg-000001 in an empty directory).  Throws m3dfl::Error only
  // here — once constructed, journal failures degrade instead of throwing.
  explicit SessionJournal(std::string dir, JournalOptions options = {});
  ~SessionJournal();

  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  // Append-before-ack writers: frame + write + fsync before returning.  On
  // any I/O failure (real or injected) the event is counted lost
  // (journal_append_failures), durable() flips false, and the writer
  // rotates before the next append so one bad segment cannot poison the
  // events that follow.
  void append_open(std::uint64_t session_id, const std::string& design_name,
                   double idle_deadline_ms, double max_lifetime_ms);
  void append_record(std::uint64_t session_id, const std::string& line);
  void append_close(std::uint64_t session_id, const std::string& why);

  // False once any append failed to reach disk: sessions keep serving, but
  // a crash may now lose events (docs/SERVING.md "degraded non-durable").
  bool durable() const { return durable_; }
  const std::string& dir() const { return dir_; }
  std::string active_segment() const { return segment_path_; }
  // The segment the constructor created; empty when it continued an
  // existing one.  It holds only this writer's events, so recovery reports
  // leave it out.
  const std::string& created_segment() const { return created_segment_; }
  std::int64_t wall_ms() const { return options_.wall_ms(); }

  // ---- static readers (no live writer required) ---------------------------
  // Segment paths of `dir`, in replay order; empty for a missing directory.
  static std::vector<std::string> list_segments(const std::string& dir);
  // Decodes one segment, accepting the longest valid prefix.  `limits`
  // (util/limits.h) bounds the segment size and each frame's declared
  // payload length; a frame declaring more than max_record_bytes — or a
  // length so large it would wrap the truncation arithmetic — is reported
  // as torn with a "limit exceeded" diagnostic, before the length is used
  // for anything.
  static SegmentScan scan_segment(const std::string& path,
                                  const ParseLimits& limits = {});
  // Same decoder over an in-memory segment image; `path_label` names the
  // buffer in diagnostics.  This is the seam fuzz/ drives: segment bytes in,
  // longest-valid-prefix decision out, no filesystem involved.
  static SegmentScan scan_segment_text(const std::string& path_label,
                                       const std::string& text,
                                       const ParseLimits& limits = {});
  // Scans every segment and reassembles live sessions.
  static JournalReplay replay(const std::string& dir,
                              const ParseLimits& limits = {});
  // Removes sealed fully-tombstoned segments (never the newest segment,
  // which a live writer may own); returns how many were deleted.
  static std::size_t compact(const std::string& dir);

 private:
  void append_payload(const std::string& payload);
  void open_next_segment();

  const std::string dir_;
  JournalOptions options_;
  int fd_ = -1;
  std::string segment_path_;
  std::string created_segment_;
  std::uint64_t segment_index_ = 0;
  std::size_t segment_bytes_ = 0;
  bool durable_ = true;
  // Set by a failed/torn append: the next append opens a fresh segment.
  bool rotate_before_next_ = false;
};

// Per-segment staleness facts for the `session-journal-stale` lint check
// (lint/checks.h run_journal_checks).  Scans `dir` and records each
// segment's newest record timestamp + frame offset; the lint pass compares
// them against the session lifetime.  Callers include lint/checks.h for the
// complete JournalFacts type.
lint::JournalFacts journal_lint_facts(const std::string& dir,
                                      double session_lifetime_ms,
                                      std::int64_t now_wall_ms);

}  // namespace m3dfl::serve

#endif  // M3DFL_SERVE_JOURNAL_H_
