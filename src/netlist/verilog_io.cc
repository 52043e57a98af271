#include "netlist/verilog_io.h"

#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/error.h"

namespace m3dfl {

// MNL grammar (one record per line, '#' comments):
//   mnl 1
//   design <name>
//   gate <id> <TYPE> <name> out=<net|-> in=<net,net,...|->
//   end
void write_mnl(const Netlist& netlist, std::ostream& os) {
  M3DFL_REQUIRE(netlist.finalized(), "write_mnl requires a finalized netlist");
  os << "mnl 1\n";
  os << "design " << (netlist.name().empty() ? "top" : netlist.name()) << "\n";
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const Gate& gate = netlist.gate(g);
    os << "gate " << g << " " << gate_type_name(gate.type) << " "
       << (gate.name.empty() ? std::string("g").append(std::to_string(g))
                             : gate.name)
       << " out=";
    if (gate.fanout == kNullNet) {
      os << "-";
    } else {
      os << gate.fanout;
    }
    os << " in=";
    if (gate.fanin.empty()) {
      os << "-";
    } else {
      for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
        os << (i ? "," : "") << gate.fanin[i];
      }
    }
    os << "\n";
  }
  os << "end\n";
}

std::string to_mnl(const Netlist& netlist) {
  std::ostringstream os;
  write_mnl(netlist, os);
  return os.str();
}

namespace {

// All parse diagnostics cite the 1-based line, so a malformed netlist file
// is debuggable from the message alone (same contract as diag/log_io).
[[noreturn]] void parse_fail(int line_no, const std::string& what) {
  throw Error("MNL line " + std::to_string(line_no) + ": " + what);
}

std::vector<std::string> split_ws(const std::string& line, int line_no,
                                  const ParseLimits& limits) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (out.size() >= limits.max_tokens_per_line) {
      parse_fail(line_no, limit_exceeded("tokens on one line", out.size() + 1,
                                        limits.max_tokens_per_line));
    }
    out.push_back(tok);
  }
  return out;
}

std::int32_t parse_i32(const std::string& s, int line_no, const char* what) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    // An id past int32 must reject, not wrap: a silently truncated net id
    // would alias an unrelated net and parse garbage into a "valid" netlist.
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max()) {
      throw std::out_of_range(s);
    }
    return static_cast<std::int32_t>(v);
  } catch (const std::exception&) {
    parse_fail(line_no, std::string("bad ") + what + " '" + s + "'");
  }
}

// bounded_getline + the MNL citation for an over-long line.
bool read_line(std::istream& is, std::string& line, int line_no,
               const ParseLimits& limits) {
  const BoundedLine bl = bounded_getline(is, line, limits.max_line_bytes);
  if (bl.too_long()) {
    parse_fail(line_no + 1,
               limit_exceeded_over("line bytes", limits.max_line_bytes));
  }
  return bl.ok();
}

}  // namespace

Netlist read_mnl(std::istream& is, const ParseLimits& limits) {
  std::string line;
  int line_no = 0;
  // Header, with expected-vs-found so a file of the wrong kind (or a future
  // format version) is reported as such instead of as a generic failure.
  // Comment/blank lines may precede it ('#' comments are part of the
  // grammar, and the corpus fixtures lead with a description).
  {
    std::vector<std::string> toks;
    while (toks.empty()) {
      M3DFL_REQUIRE(read_line(is, line, line_no, limits),
                    "MNL line " + std::to_string(line_no + 1) +
                        ": empty input (expected 'mnl 1' header)");
      ++line_no;
      const auto hash = line.find('#');
      std::string stripped = line;
      if (hash != std::string::npos) stripped.resize(hash);
      toks = split_ws(stripped, line_no, limits);
    }
    if (toks[0] != "mnl") {
      parse_fail(line_no,
                 "not an MNL stream: expected 'mnl 1' header, found '" +
                     line + "'");
    }
    if (toks.size() != 2 || toks[1] != "1") {
      parse_fail(line_no, "unsupported MNL version: expected 1, found '" +
                              (toks.size() > 1 ? toks[1] : "") + "'");
    }
  }

  Netlist nl;
  // Deferred connections: gate id -> (fanout net, fanin nets).  Net ids in
  // the file are dense indices; we materialize nets on first mention.
  std::int32_t max_net = -1;
  struct GateRec {
    GateType type;
    std::string name;
    NetId out;
    std::vector<NetId> in;
  };
  std::vector<GateRec> recs;
  // net -> line of the gate already driving it: two drivers on one net is a
  // short, not a netlist, so it is rejected at parse time.
  std::vector<int> driver_line;
  bool saw_design = false;

  bool saw_end = false;
  while (read_line(is, line, line_no, limits)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto toks = split_ws(line, line_no, limits);
    if (toks.empty()) continue;
    if (toks[0] == "design") {
      if (toks.size() != 2) {
        parse_fail(line_no, "bad design record (expected 'design <name>')");
      }
      if (saw_design) parse_fail(line_no, "duplicate design record");
      saw_design = true;
      nl.set_name(toks[1]);
      continue;
    }
    if (toks[0] == "end") {
      saw_end = true;
      break;
    }
    if (toks[0] != "gate") {
      parse_fail(line_no, "unknown record '" + toks[0] + "'");
    }
    if (toks.size() != 6) {
      parse_fail(line_no, "truncated 'gate' record (expected 6 fields, got " +
                              std::to_string(toks.size()) + ")");
    }
    const std::int32_t id = parse_i32(toks[1], line_no, "gate id");
    if (id != static_cast<std::int32_t>(recs.size())) {
      parse_fail(line_no, "gate ids must be dense and in order: expected " +
                              std::to_string(recs.size()) + ", found " +
                              std::to_string(id));
    }
    if (static_cast<std::int32_t>(recs.size()) >= limits.max_gates) {
      parse_fail(line_no,
                 limit_exceeded("gate count",
                                static_cast<unsigned long long>(recs.size()) + 1,
                                static_cast<unsigned long long>(
                                    limits.max_gates)));
    }
    GateRec rec;
    try {
      rec.type = parse_gate_type(toks[2]);
    } catch (const Error&) {
      parse_fail(line_no, std::string("bad gate type '") + toks[2] + "'");
    }
    rec.name = toks[3];
    if (toks[4].rfind("out=", 0) != 0 || toks[5].rfind("in=", 0) != 0) {
      parse_fail(line_no, "bad out=/in= fields");
    }
    const std::string out_s = toks[4].substr(4);
    rec.out = out_s == "-" ? kNullNet : parse_i32(out_s, line_no, "net id");
    if (rec.out != kNullNet) {
      if (rec.out < 0) {
        parse_fail(line_no, "out-of-range net id " + std::to_string(rec.out));
      }
      // Validate against the policy cap BEFORE the id sizes driver_line (or,
      // later, the net table): one record naming net 2^31-1 must reject
      // here, not allocate a 2-billion-entry vector.
      if (rec.out >= limits.max_nets) {
        parse_fail(line_no,
                   limit_exceeded("net id",
                                  static_cast<unsigned long long>(rec.out),
                                  static_cast<unsigned long long>(
                                      limits.max_nets)));
      }
      max_net = std::max(max_net, rec.out);
      if (static_cast<std::size_t>(rec.out) >= driver_line.size()) {
        driver_line.resize(static_cast<std::size_t>(rec.out) + 1, 0);
      }
      int& owner = driver_line[static_cast<std::size_t>(rec.out)];
      if (owner != 0) {
        parse_fail(line_no, "net " + std::to_string(rec.out) +
                                " already driven by the gate on line " +
                                std::to_string(owner));
      }
      owner = line_no;
    }
    const std::string in_s = toks[5].substr(3);
    if (in_s != "-") {
      std::istringstream iss(in_s);
      std::string item;
      while (std::getline(iss, item, ',')) {
        const NetId n = parse_i32(item, line_no, "net id");
        if (n < 0) {
          parse_fail(line_no, "out-of-range net id " + std::to_string(n));
        }
        if (n >= limits.max_nets) {
          parse_fail(line_no,
                     limit_exceeded("net id",
                                    static_cast<unsigned long long>(n),
                                    static_cast<unsigned long long>(
                                        limits.max_nets)));
        }
        if (rec.in.size() >= limits.max_fanin) {
          parse_fail(line_no, limit_exceeded("gate fanin", rec.in.size() + 1,
                                             limits.max_fanin));
        }
        rec.in.push_back(n);
        max_net = std::max(max_net, n);
      }
    }
    recs.push_back(std::move(rec));
  }
  M3DFL_REQUIRE(saw_end, "MNL: truncated (missing 'end' after line " +
                             std::to_string(line_no) + ")");

  for (std::int32_t n = 0; n <= max_net; ++n) nl.add_net();
  for (const GateRec& rec : recs) {
    const GateId g = nl.add_gate(rec.type, rec.name);
    if (rec.out != kNullNet) nl.set_output(g, rec.out);
    for (NetId n : rec.in) nl.connect_input(g, n);
  }
  nl.finalize();
  return nl;
}

Netlist from_mnl(const std::string& text, const ParseLimits& limits) {
  std::istringstream is(text);
  return read_mnl(is, limits);
}

void write_verilog(const Netlist& netlist, std::ostream& os) {
  M3DFL_REQUIRE(netlist.finalized(),
                "write_verilog requires a finalized netlist");
  const auto net_name = [&](NetId n) {
    const std::string& s = netlist.net(n).name;
    return s.empty() ? std::string("n").append(std::to_string(n)) : s;
  };
  const auto gate_name = [&](GateId g) {
    const std::string& s = netlist.gate(g).name;
    return s.empty() ? std::string("g").append(std::to_string(g)) : s;
  };

  os << "module " << (netlist.name().empty() ? "top" : netlist.name()) << " (";
  bool first = true;
  for (GateId g : netlist.primary_inputs()) {
    os << (first ? "" : ", ") << gate_name(g);
    first = false;
  }
  for (GateId g : netlist.primary_outputs()) {
    os << (first ? "" : ", ") << gate_name(g);
    first = false;
  }
  os << ");\n";
  for (GateId g : netlist.primary_inputs()) {
    os << "  input " << gate_name(g) << ";\n";
  }
  for (GateId g : netlist.primary_outputs()) {
    os << "  output " << gate_name(g) << ";\n";
  }
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    os << "  wire " << net_name(n) << ";\n";
  }
  // Port aliases.
  for (GateId g : netlist.primary_inputs()) {
    os << "  assign " << net_name(netlist.gate(g).fanout) << " = "
       << gate_name(g) << ";\n";
  }
  for (GateId g : netlist.primary_outputs()) {
    os << "  assign " << gate_name(g) << " = "
       << net_name(netlist.gate(g).fanin[0]) << ";\n";
  }
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const Gate& gate = netlist.gate(g);
    if (gate.type == GateType::kPrimaryInput ||
        gate.type == GateType::kPrimaryOutput) {
      continue;
    }
    if (gate.type == GateType::kScanFlop) {
      os << "  SDFF " << gate_name(g) << " (.D(" << net_name(gate.fanin[0])
         << "), .Q(" << net_name(gate.fanout) << "));\n";
      continue;
    }
    os << "  " << gate_type_name(gate.type) << gate.fanin.size() << " "
       << gate_name(g) << " (.Y(" << net_name(gate.fanout) << ")";
    for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
      os << ", .A" << i << "(" << net_name(gate.fanin[i]) << ")";
    }
    os << ");\n";
  }
  os << "endmodule\n";
}

std::string to_verilog(const Netlist& netlist) {
  std::ostringstream os;
  write_verilog(netlist, os);
  return os.str();
}

}  // namespace m3dfl
