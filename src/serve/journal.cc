#include "serve/journal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "lint/checks.h"
#include "util/checksum.h"
#include "util/error.h"

namespace m3dfl::serve {
namespace {

constexpr const char* kHeader = "m3dfl-journal 1";
constexpr const char* kSegmentPrefix = "seg-";
constexpr const char* kSegmentSuffix = ".m3dflj";

std::string segment_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(index), kSegmentSuffix);
  return buf;
}

// seg-NNNNNN.m3dflj -> NNNNNN; 0 for anything else.
std::uint64_t segment_index_of(const std::string& filename) {
  const std::size_t prefix = std::strlen(kSegmentPrefix);
  const std::size_t suffix = std::strlen(kSegmentSuffix);
  if (filename.size() <= prefix + suffix) return 0;
  if (filename.compare(0, prefix, kSegmentPrefix) != 0) return 0;
  if (filename.compare(filename.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return 0;
  }
  const std::string digits =
      filename.substr(prefix, filename.size() - prefix - suffix);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return 0;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

std::string hex8(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", value);
  return buf;
}

// Doubles (deadline milliseconds) round-trip through max_digits10 so a
// replayed session carries exactly the deadlines the original was given.
std::string fmt_double(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

std::string frame_for(const std::string& payload) {
  return "r " + hex8(crc32(payload)) + " " + std::to_string(payload.size()) +
         " " + payload + "\n";
}

// Offset-cited scan diagnostic, util/artifact style.
std::string scan_diag(const std::string& path, std::size_t offset,
                      const std::string& what) {
  return path + ": journal byte " + std::to_string(offset) + ": " + what;
}

// Parses "<uint64>" out of `token`; false on garbage.
bool parse_u64(const std::string& token, std::uint64_t& out) {
  if (token.empty() ||
      token.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(token.c_str(), nullptr, 10);
  return true;
}

bool parse_i64(const std::string& token, std::int64_t& out) {
  std::size_t start = 0;
  if (!token.empty() && token[0] == '-') start = 1;
  if (start >= token.size() ||
      token.find_first_not_of("0123456789", start) != std::string::npos) {
    return false;
  }
  out = std::strtoll(token.c_str(), nullptr, 10);
  return true;
}

// Splits the first `n` space-separated tokens off `payload`, leaving the
// verbatim remainder (one separating space consumed) in `rest`.
bool split_tokens(const std::string& payload, std::size_t n,
                  std::vector<std::string>& tokens, std::string& rest) {
  std::size_t pos = 0;
  tokens.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t space = payload.find(' ', pos);
    if (space == std::string::npos || space == pos) return false;
    tokens.push_back(payload.substr(pos, space - pos));
    pos = space + 1;
  }
  rest = payload.substr(pos);
  return true;
}

// Decodes one payload into a record; returns an empty string on success,
// else what was wrong (the caller cites the frame offset).
std::string parse_payload(const std::string& payload, JournalRecord& record) {
  std::vector<std::string> tokens;
  std::string rest;
  const std::size_t space = payload.find(' ');
  const std::string word =
      space == std::string::npos ? payload : payload.substr(0, space);
  if (word == "open") {
    record.type = JournalRecord::Type::kOpen;
    if (!split_tokens(payload, 5, tokens, rest) || rest.empty()) {
      return "truncated 'open' payload (expected 'open <id> <wall_ms> "
             "<idle_ms> <life_ms> <design>')";
    }
    if (!parse_u64(tokens[1], record.session_id)) {
      return "bad session id '" + tokens[1] + "' in 'open' payload";
    }
    if (!parse_i64(tokens[2], record.wall_ms)) {
      return "bad wall timestamp '" + tokens[2] + "' in 'open' payload";
    }
    char* end = nullptr;
    record.idle_deadline_ms = std::strtod(tokens[3].c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return "bad idle deadline '" + tokens[3] + "' in 'open' payload";
    }
    record.max_lifetime_ms = std::strtod(tokens[4].c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return "bad lifetime deadline '" + tokens[4] + "' in 'open' payload";
    }
    record.design_name = rest;
    return "";
  }
  if (word == "rec") {
    record.type = JournalRecord::Type::kRecord;
    if (!split_tokens(payload, 3, tokens, rest)) {
      return "truncated 'rec' payload (expected 'rec <id> <wall_ms> <line>')";
    }
    if (!parse_u64(tokens[1], record.session_id)) {
      return "bad session id '" + tokens[1] + "' in 'rec' payload";
    }
    if (!parse_i64(tokens[2], record.wall_ms)) {
      return "bad wall timestamp '" + tokens[2] + "' in 'rec' payload";
    }
    record.text = rest;
    return "";
  }
  if (word == "close") {
    record.type = JournalRecord::Type::kClose;
    if (!split_tokens(payload, 3, tokens, rest) || rest.empty()) {
      return "truncated 'close' payload (expected 'close <id> <wall_ms> "
             "finalized|expired|evicted')";
    }
    if (!parse_u64(tokens[1], record.session_id)) {
      return "bad session id '" + tokens[1] + "' in 'close' payload";
    }
    if (!parse_i64(tokens[2], record.wall_ms)) {
      return "bad wall timestamp '" + tokens[2] + "' in 'close' payload";
    }
    if (rest != "finalized" && rest != "expired" && rest != "evicted") {
      return "unknown close reason '" + rest + "'";
    }
    record.text = rest;
    return "";
  }
  return "unknown payload kind '" + word + "' (expected open/rec/close)";
}

void count(Metrics* metrics, std::atomic<std::int64_t> Metrics::* counter) {
  if (metrics != nullptr) {
    (metrics->*counter).fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

std::int64_t system_wall_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// ---- writer -----------------------------------------------------------------

SessionJournal::SessionJournal(std::string dir, JournalOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  if (!options_.wall_ms) options_.wall_ms = system_wall_ms;
  M3DFL_REQUIRE(!dir_.empty(), "session journal needs a directory");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  M3DFL_REQUIRE(!ec, "cannot create journal directory '" + dir_ +
                         "': " + ec.message());

  // Continue the newest segment when its whole body parses and it still has
  // rotation headroom; anything torn stays frozen as scan evidence and the
  // writer moves on to a fresh segment.
  const std::vector<std::string> segments = list_segments(dir_);
  if (!segments.empty()) {
    segment_index_ =
        segment_index_of(std::filesystem::path(segments.back()).filename());
    const SegmentScan scan = scan_segment(segments.back());
    if (scan.diagnostic.empty() && scan.total_bytes < options_.max_segment_bytes) {
      segment_path_ = segments.back();
      segment_bytes_ = scan.total_bytes;
      fd_ = ::open(segment_path_.c_str(), O_WRONLY | O_APPEND);
      M3DFL_REQUIRE(fd_ >= 0, "cannot reopen journal segment '" +
                                  segment_path_ + "': " +
                                  std::strerror(errno));
      return;
    }
  }
  open_next_segment();
  M3DFL_REQUIRE(fd_ >= 0, "cannot open journal segment in '" + dir_ + "'");
  created_segment_ = segment_path_;
}

SessionJournal::~SessionJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void SessionJournal::open_next_segment() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const bool first = segment_path_.empty();
  ++segment_index_;
  segment_path_ =
      (std::filesystem::path(dir_) / segment_name(segment_index_)).string();
  segment_bytes_ = 0;
  rotate_before_next_ = false;
  // Failures here leave fd_ < 0 and are counted (once per lost event) by
  // append_payload, the only caller that actually loses an event.
  fd_ = ::open(segment_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    durable_ = false;
    return;
  }
  const std::string header = std::string(kHeader) + "\n";
  std::size_t written = 0;
  while (written < header.size()) {
    const ::ssize_t n =
        ::write(fd_, header.data() + written, header.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      durable_ = false;
      ::close(fd_);
      fd_ = -1;
      return;
    }
    written += static_cast<std::size_t>(n);
  }
  ::fsync(fd_);
  segment_bytes_ = header.size();
  // Persist the new directory entry, same discipline as util/atomic_file.
  const int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  if (!first) count(options_.metrics, &Metrics::journal_rotations);
}

void SessionJournal::append_payload(const std::string& payload) {
  if (rotate_before_next_ || fd_ < 0 ||
      segment_bytes_ >= options_.max_segment_bytes) {
    open_next_segment();
  }
  if (fd_ < 0) {
    // The rotation itself failed; the event is lost but the request is not.
    count(options_.metrics, &Metrics::journal_append_failures);
    durable_ = false;
    return;
  }

  std::string frame = frame_for(payload);
  // kJournalCorrupt models silent media corruption: the CRC is computed
  // over the clean payload, then one payload bit flips on the way to disk.
  // The writer cannot see it; the next scan stops its valid prefix here.
  if (options_.injector != nullptr &&
      options_.injector->should_fail(Seam::kJournalCorrupt) &&
      !payload.empty()) {
    frame[frame.size() - 2 - payload.size() / 2] ^= 0x01;
  }
  // kJournalTornWrite models a crash (or full disk) mid-frame: only a
  // prefix reaches the segment.  The writer detects the short write, counts
  // the event lost, and seals the segment so later appends land cleanly.
  std::size_t intend = frame.size();
  bool torn = false;
  if (options_.injector != nullptr &&
      options_.injector->should_fail(Seam::kJournalTornWrite)) {
    intend = std::max<std::size_t>(1, frame.size() / 2);
    torn = true;
  }

  std::size_t written = 0;
  bool write_failed = false;
  while (written < intend) {
    const ::ssize_t n = ::write(fd_, frame.data() + written, intend - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      write_failed = true;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  segment_bytes_ += written;

  // Durability before ack: the frame must be on disk before the caller is
  // told the event happened.  An fsync failure (real or injected) means the
  // bytes may not survive a crash — degrade to non-durable, never fail the
  // serving request.
  bool fsync_failed = ::fsync(fd_) != 0;
  if (options_.injector != nullptr &&
      options_.injector->should_fail(Seam::kJournalFsync)) {
    fsync_failed = true;
  }

  if (torn || write_failed || fsync_failed) {
    count(options_.metrics, &Metrics::journal_append_failures);
    durable_ = false;
    rotate_before_next_ = true;
    return;
  }
  count(options_.metrics, &Metrics::journal_appends);
}

void SessionJournal::append_open(std::uint64_t session_id,
                                 const std::string& design_name,
                                 double idle_deadline_ms,
                                 double max_lifetime_ms) {
  append_payload("open " + std::to_string(session_id) + " " +
                 std::to_string(options_.wall_ms()) + " " +
                 fmt_double(idle_deadline_ms) + " " +
                 fmt_double(max_lifetime_ms) + " " + design_name);
}

void SessionJournal::append_record(std::uint64_t session_id,
                                   const std::string& line) {
  append_payload("rec " + std::to_string(session_id) + " " +
                 std::to_string(options_.wall_ms()) + " " + line);
}

void SessionJournal::append_close(std::uint64_t session_id,
                                  const std::string& why) {
  append_payload("close " + std::to_string(session_id) + " " +
                 std::to_string(options_.wall_ms()) + " " + why);
}

// ---- readers ----------------------------------------------------------------

std::vector<std::string> SessionJournal::list_segments(const std::string& dir) {
  std::vector<std::string> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (segment_index_of(name) > 0) segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end(),
            [](const std::string& a, const std::string& b) {
              return segment_index_of(std::filesystem::path(a).filename()) <
                     segment_index_of(std::filesystem::path(b).filename());
            });
  return segments;
}

SegmentScan SessionJournal::scan_segment(const std::string& path,
                                         const ParseLimits& limits) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    SegmentScan scan;
    scan.path = path;
    scan.diagnostic = scan_diag(path, 0, "cannot open segment");
    return scan;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return scan_segment_text(path, buf.str(), limits);
}

SegmentScan SessionJournal::scan_segment_text(const std::string& path,
                                              const std::string& text,
                                              const ParseLimits& limits) {
  SegmentScan scan;
  scan.path = path;
  scan.total_bytes = text.size();
  if (text.size() > limits.max_file_bytes) {
    scan.diagnostic = scan_diag(
        path, 0,
        limit_exceeded("segment bytes", text.size(), limits.max_file_bytes));
    return scan;
  }

  // Header line.
  const std::string header = std::string(kHeader) + "\n";
  if (text.size() < header.size() ||
      text.compare(0, header.size(), header) != 0) {
    scan.diagnostic = scan_diag(
        path, 0,
        "missing '" + std::string(kHeader) + "' header; found '" +
            text.substr(0, std::min<std::size_t>(text.size(), 24)) + "'");
    return scan;
  }
  std::size_t offset = header.size();
  scan.valid_bytes = offset;

  const auto torn = [&](std::size_t at, const std::string& what) {
    scan.diagnostic =
        scan_diag(path, at,
                  what + "; accepting the valid prefix (" +
                      std::to_string(scan.records.size()) + " record(s), " +
                      std::to_string(scan.valid_bytes) + " bytes)");
  };

  while (offset < text.size()) {
    const std::size_t frame_offset = offset;
    // "r <8 hex> <len> " prefix.
    if (text.compare(offset, 2, "r ") != 0) {
      torn(frame_offset, "bad frame marker (expected 'r ', found '" +
                             text.substr(offset, 2) + "')");
      return scan;
    }
    if (offset + 11 > text.size() || text[offset + 10] != ' ') {
      torn(frame_offset, "truncated frame checksum");
      return scan;
    }
    const std::string crc_hex = text.substr(offset + 2, 8);
    if (crc_hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      torn(frame_offset,
           "bad frame checksum '" + crc_hex + "' (expected 8 hex digits)");
      return scan;
    }
    const std::uint32_t expected_crc =
        static_cast<std::uint32_t>(std::strtoul(crc_hex.c_str(), nullptr, 16));
    offset += 11;
    const std::size_t len_end = text.find(' ', offset);
    if (len_end == std::string::npos || len_end == offset ||
        text.find_first_not_of("0123456789", offset) < len_end) {
      torn(frame_offset, "bad frame length field");
      return scan;
    }
    const std::size_t payload_size =
        std::strtoull(text.c_str() + offset, nullptr, 10);
    offset = len_end + 1;
    // Cap the declared length before the truncation arithmetic below: a
    // declared ULLONG_MAX (strtoull saturates there for any longer digit
    // string) would wrap `offset + payload_size + 1` into passing.
    if (payload_size > limits.max_record_bytes) {
      torn(frame_offset,
           limit_exceeded("declared frame payload bytes", payload_size,
                          limits.max_record_bytes));
      return scan;
    }
    if (offset + payload_size + 1 > text.size()) {
      torn(frame_offset, "truncated frame payload (need " +
                             std::to_string(payload_size + 1) +
                             " byte(s), segment has " +
                             std::to_string(text.size() - offset) + ")");
      return scan;
    }
    const std::string payload = text.substr(offset, payload_size);
    if (text[offset + payload_size] != '\n') {
      torn(frame_offset, "frame missing trailing newline");
      return scan;
    }
    const std::uint32_t actual_crc = crc32(payload);
    if (actual_crc != expected_crc) {
      torn(frame_offset, "frame checksum mismatch (expected " +
                             hex8(expected_crc) + ", computed " +
                             hex8(actual_crc) + ")");
      return scan;
    }
    JournalRecord record;
    record.offset = frame_offset;
    const std::string error = parse_payload(payload, record);
    if (!error.empty()) {
      torn(frame_offset, error);
      return scan;
    }
    offset += payload_size + 1;
    scan.valid_bytes = offset;
    scan.records.push_back(std::move(record));
  }
  return scan;
}

JournalReplay SessionJournal::replay(const std::string& dir,
                                     const ParseLimits& limits) {
  JournalReplay result;
  std::map<std::uint64_t, JournalReplay::LiveSession> live;
  std::set<std::uint64_t> closed;
  for (const std::string& path : list_segments(dir)) {
    SegmentScan scan = scan_segment(path, limits);
    if (!scan.diagnostic.empty()) result.diagnostics.push_back(scan.diagnostic);
    result.records += scan.records.size();
    for (JournalRecord& record : scan.records) {
      result.max_session_id = std::max(result.max_session_id,
                                       record.session_id);
      switch (record.type) {
        case JournalRecord::Type::kOpen: {
          if (closed.count(record.session_id) != 0) {
            // Nothing is "kept" here: the tombstone wins and this open is
            // dropped outright — the signature of a restarted manager
            // reissuing a journaled id.
            result.diagnostics.push_back(scan_diag(
                path, record.offset,
                "open for already-closed session " +
                    std::to_string(record.session_id) + "; dropped"));
            break;
          }
          if (live.count(record.session_id) != 0) {
            result.diagnostics.push_back(scan_diag(
                path, record.offset,
                "duplicate open for session " +
                    std::to_string(record.session_id) + "; keeping the first"));
            break;
          }
          JournalReplay::LiveSession session;
          session.id = record.session_id;
          session.design_name = std::move(record.design_name);
          session.opened_wall_ms = record.wall_ms;
          session.last_wall_ms = record.wall_ms;
          session.idle_deadline_ms = record.idle_deadline_ms;
          session.max_lifetime_ms = record.max_lifetime_ms;
          live.emplace(record.session_id, std::move(session));
          break;
        }
        case JournalRecord::Type::kRecord: {
          const auto it = live.find(record.session_id);
          if (it == live.end()) {
            result.diagnostics.push_back(scan_diag(
                path, record.offset,
                "record for " +
                    std::string(closed.count(record.session_id) != 0
                                    ? "closed"
                                    : "unopened") +
                    " session " + std::to_string(record.session_id) +
                    "; dropped"));
            break;
          }
          it->second.lines.push_back(std::move(record.text));
          it->second.last_wall_ms = record.wall_ms;
          break;
        }
        case JournalRecord::Type::kClose: {
          if (closed.count(record.session_id) != 0) {
            result.diagnostics.push_back(scan_diag(
                path, record.offset,
                "duplicate tombstone for session " +
                    std::to_string(record.session_id) + "; ignored"));
            break;
          }
          // A close whose open was compacted away still counts: it is a
          // replay no-op on the session table, which is what makes dropping
          // open+close segments safe.
          live.erase(record.session_id);
          closed.insert(record.session_id);
          ++result.closed_sessions;
          break;
        }
      }
    }
    result.segments.push_back(std::move(scan));
  }
  result.live.reserve(live.size());
  for (auto& [id, session] : live) result.live.push_back(std::move(session));
  return result;
}

std::size_t SessionJournal::compact(const std::string& dir) {
  const std::vector<std::string> segments = list_segments(dir);
  if (segments.size() < 2) return 0;  // never touch the active segment

  // Per segment: the sessions whose state lives there (open/rec) and the
  // sessions whose tombstones live there.
  struct SegmentSessions {
    std::set<std::uint64_t> state;
    std::set<std::uint64_t> closes;
  };
  std::vector<SegmentSessions> per_segment(segments.size());
  std::set<std::uint64_t> closed;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentScan scan = scan_segment(segments[i]);
    for (const JournalRecord& record : scan.records) {
      if (record.type == JournalRecord::Type::kClose) {
        per_segment[i].closes.insert(record.session_id);
        closed.insert(record.session_id);
      } else {
        per_segment[i].state.insert(record.session_id);
      }
    }
  }

  // A segment is removable when every session whose state it holds is
  // closed — but removing a tombstone whose open survives in a kept segment
  // would resurrect that session, so candidates holding such tombstones are
  // demoted until the set is stable.
  std::vector<bool> removable(segments.size(), false);
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    removable[i] = true;
    for (const std::uint64_t id : per_segment[i].state) {
      if (closed.count(id) == 0) {
        removable[i] = false;
        break;
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    std::set<std::uint64_t> kept_state;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (removable[i]) continue;
      kept_state.insert(per_segment[i].state.begin(),
                        per_segment[i].state.end());
    }
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
      if (!removable[i]) continue;
      for (const std::uint64_t id : per_segment[i].closes) {
        if (kept_state.count(id) != 0) {
          removable[i] = false;
          changed = true;
          break;
        }
      }
    }
  }

  std::size_t removed = 0;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    if (!removable[i]) continue;
    std::error_code ec;
    if (std::filesystem::remove(segments[i], ec) && !ec) ++removed;
  }
  if (removed > 0) {
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
      ::fsync(dir_fd);
      ::close(dir_fd);
    }
  }
  return removed;
}

lint::JournalFacts journal_lint_facts(const std::string& dir,
                                      double session_lifetime_ms,
                                      std::int64_t now_wall_ms) {
  lint::JournalFacts facts;
  facts.session_lifetime_ms = session_lifetime_ms;
  facts.now_wall_ms = now_wall_ms;
  for (const std::string& path : SessionJournal::list_segments(dir)) {
    const SegmentScan scan = SessionJournal::scan_segment(path);
    lint::JournalSegmentFacts segment;
    segment.path = path;
    segment.records = scan.records.size();
    for (const JournalRecord& record : scan.records) {
      if (record.wall_ms >= segment.newest_wall_ms) {
        segment.newest_wall_ms = record.wall_ms;
        segment.newest_offset = record.offset;
      }
    }
    facts.segments.push_back(std::move(segment));
  }
  return facts;
}

}  // namespace m3dfl::serve
