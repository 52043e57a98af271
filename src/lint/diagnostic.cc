#include "lint/diagnostic.h"

#include <sstream>
#include <utility>

#include "util/bench_json.h"
#include "util/error.h"

namespace m3dfl::lint {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "unknown";
}

const char* artifact_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kNetlist: return "netlist";
    case ArtifactKind::kM3d: return "m3d";
    case ArtifactKind::kScan: return "scan";
    case ArtifactKind::kGraph: return "graph";
    case ArtifactKind::kFeatures: return "features";
    case ArtifactKind::kFailureLog: return "failure-log";
    case ArtifactKind::kModel: return "model";
    case ArtifactKind::kJournal: return "journal";
    case ArtifactKind::kTiming: return "timing";
  }
  return "unknown";
}

Severity parse_severity(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "note") return Severity::kNote;
  if (lower == "warn" || lower == "warning") return Severity::kWarn;
  if (lower == "error") return Severity::kError;
  throw Error("unknown severity '" + std::string(name) +
              "' (expected note, warn, or error)");
}

std::string Diagnostic::to_string() const {
  std::string out;
  out += severity_name(severity);
  out += "[";
  out += check_id;
  out += "] ";
  out += artifact_name(artifact);
  if (!location.empty()) {
    out += " at ";
    out += location;
  }
  out += ": ";
  out += message;
  if (!hint.empty()) {
    out += " (hint: ";
    out += hint;
    out += ")";
  }
  return out;
}

void Report::add(Diagnostic diagnostic) {
  diags_.push_back(std::move(diagnostic));
}

void Report::merge(Report&& other) {
  for (Diagnostic& d : other.diags_) diags_.push_back(std::move(d));
  other.diags_.clear();
}

std::int32_t Report::count(Severity severity) const {
  std::int32_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == severity) ++n;
  }
  return n;
}

Severity Report::worst() const {
  Severity worst = Severity::kNote;
  for (const Diagnostic& d : diags_) {
    if (d.severity > worst) worst = d.severity;
  }
  return worst;
}

const Diagnostic* Report::find(std::string_view check_id) const {
  for (const Diagnostic& d : diags_) {
    if (d.check_id == check_id) return &d;
  }
  return nullptr;
}

std::string Report::summary() const {
  if (diags_.empty()) return "clean";
  const std::int32_t errors = count(Severity::kError);
  const std::int32_t warns = count(Severity::kWarn);
  const std::int32_t notes = count(Severity::kNote);
  std::ostringstream os;
  const char* sep = "";
  if (errors > 0) {
    os << errors << (errors == 1 ? " error" : " errors");
    sep = ", ";
  }
  if (warns > 0) {
    os << sep << warns << (warns == 1 ? " warning" : " warnings");
    sep = ", ";
  }
  if (notes > 0) {
    os << sep << notes << (notes == 1 ? " note" : " notes");
  }
  return os.str();
}

std::string Report::to_string() const {
  std::string out;
  for (const Diagnostic& d : diags_) {
    out += d.to_string();
    out += "\n";
  }
  out += summary();
  out += "\n";
  return out;
}

std::string Report::to_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const Diagnostic& d = diags_[i];
    out += "  {\"check\": " + json_escape(d.check_id);
    out += ", \"severity\": " + json_escape(severity_name(d.severity));
    out += ", \"artifact\": " + json_escape(artifact_name(d.artifact));
    out += ", \"location\": " + json_escape(d.location);
    out += ", \"message\": " + json_escape(d.message);
    out += ", \"hint\": " + json_escape(d.hint);
    out += i + 1 < diags_.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  return out;
}

}  // namespace m3dfl::lint
