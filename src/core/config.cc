#include "core/config.h"

#include <algorithm>
#include <cctype>
#include <istream>
#include <set>
#include <sstream>

#include "util/error.h"
#include "util/parse_number.h"

namespace m3dfl {

const std::vector<Profile>& all_profiles() {
  static const std::vector<Profile> kProfiles = {
      Profile::kAes, Profile::kTate, Profile::kNetcard, Profile::kLeon3mp};
  return kProfiles;
}

const std::vector<DesignConfig>& all_configs() {
  static const std::vector<DesignConfig> kConfigs = {
      DesignConfig::kSyn1, DesignConfig::kTpi, DesignConfig::kSyn2,
      DesignConfig::kPar};
  return kConfigs;
}

std::string profile_name(Profile profile) {
  switch (profile) {
    case Profile::kAes: return "AES";
    case Profile::kTate: return "Tate";
    case Profile::kNetcard: return "netcard";
    case Profile::kLeon3mp: return "leon3mp";
  }
  M3DFL_ASSERT(false);
}

std::string config_name(DesignConfig config) {
  switch (config) {
    case DesignConfig::kSyn1: return "Syn-1";
    case DesignConfig::kTpi: return "TPI";
    case DesignConfig::kSyn2: return "Syn-2";
    case DesignConfig::kPar: return "Par";
  }
  M3DFL_ASSERT(false);
}

Profile parse_profile(const std::string& name) {
  for (Profile p : all_profiles()) {
    std::string lower = profile_name(p);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == name) return p;
  }
  throw Error("unknown profile '" + name + "' (aes|tate|netcard|leon3mp)");
}

DesignConfig parse_config(const std::string& name) {
  if (name == "syn1") return DesignConfig::kSyn1;
  if (name == "tpi") return DesignConfig::kTpi;
  if (name == "syn2") return DesignConfig::kSyn2;
  if (name == "par") return DesignConfig::kPar;
  throw Error("unknown config '" + name + "' (syn1|tpi|syn2|par)");
}

namespace {

[[noreturn]] void cfg_fail(const std::string& source, int line_no,
                           const std::string& what) {
  throw Error(source + " line " + std::to_string(line_no) + ": " + what);
}

}  // namespace

TrainOptions read_train_options(std::istream& is, const TrainOptions& defaults,
                                const std::string& source,
                                const ParseLimits& limits) {
  TrainOptions out = defaults;
  std::set<std::string> seen;
  std::string line;
  int line_no = 0;
  for (;;) {
    const BoundedLine bl = bounded_getline(is, line, limits.max_line_bytes);
    if (bl.too_long()) {
      cfg_fail(source, line_no + 1,
               limit_exceeded_over("line bytes", limits.max_line_bytes));
    }
    if (!bl.ok()) break;
    ++line_no;
    if (static_cast<std::size_t>(line_no) > limits.max_config_lines) {
      cfg_fail(source, line_no,
               limit_exceeded("config lines", static_cast<unsigned>(line_no),
                              limits.max_config_lines));
    }
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    std::string value;
    if (!(ls >> value)) {
      cfg_fail(source, line_no, "missing value for key '" + key + "'");
    }
    std::string extra;
    if (ls >> extra) {
      cfg_fail(source, line_no,
               "trailing garbage '" + extra + "' after key '" + key + "'");
    }
    if (!seen.insert(key).second) {
      cfg_fail(source, line_no, "duplicate key '" + key + "'");
    }

    bool parsed = false;
    if (key == "epochs") {
      parsed = parse_number(value, out.epochs);
    } else if (key == "batch_size") {
      parsed = parse_number(value, out.batch_size);
    } else if (key == "lr") {
      parsed = parse_number(value, out.lr);
    } else if (key == "seed") {
      parsed = parse_number(value, out.seed);
    } else if (key == "min_improvement") {
      parsed = parse_number(value, out.min_improvement);
    } else if (key == "patience") {
      parsed = parse_number(value, out.patience);
    } else {
      cfg_fail(source, line_no,
               "unknown key '" + key +
                   "' (epochs|batch_size|lr|seed|min_improvement|patience)");
    }
    if (!parsed) {
      cfg_fail(source, line_no,
               "non-numeric value '" + value + "' for key '" + key + "'");
    }
    if (key == "epochs" && out.epochs < 1) {
      cfg_fail(source, line_no, "epochs must be >= 1");
    }
    if (key == "batch_size" && out.batch_size < 1) {
      cfg_fail(source, line_no, "batch_size must be >= 1");
    }
    if (key == "lr" && !(out.lr > 0.0)) {
      cfg_fail(source, line_no, "lr must be > 0");
    }
    if (key == "min_improvement" && out.min_improvement < 0.0) {
      cfg_fail(source, line_no, "min_improvement must be >= 0");
    }
    if (key == "patience" && out.patience < 1) {
      cfg_fail(source, line_no, "patience must be >= 1");
    }
  }
  return out;
}

ProfileSpec profile_spec(Profile profile) {
  ProfileSpec spec;
  switch (profile) {
    case Profile::kAes:
      spec.name = "AES";
      spec.gen.name = "aes";
      spec.gen.num_gates = 1800;
      spec.gen.num_pis = 40;
      spec.gen.num_pos = 32;
      spec.gen.num_flops = 160;
      spec.gen.target_depth = 14;
      spec.gen.seed = 0xAE5001;
      spec.gen.max_fanout = 6;
      spec.gen.chain_extend_prob = 0.10;
      spec.num_chains = 16;
      spec.atpg.max_patterns = 192;
      spec.fail_memory_patterns = 0;  // small program: full fail logging
      break;
    case Profile::kTate:
      spec.name = "Tate";
      spec.gen.name = "tate";
      spec.gen.num_gates = 3200;
      spec.gen.num_pis = 48;
      spec.gen.num_pos = 40;
      spec.gen.num_flops = 240;
      spec.gen.target_depth = 16;
      spec.gen.seed = 0x7A7E01;
      spec.gen.max_fanout = 7;
      spec.gen.chain_extend_prob = 0.15;
      spec.num_chains = 24;
      spec.atpg.max_patterns = 128;
      spec.fail_memory_patterns = 0;  // small program: full fail logging
      break;
    case Profile::kNetcard:
      spec.name = "netcard";
      spec.gen.name = "netcard";
      spec.gen.num_gates = 3800;
      spec.gen.num_pis = 64;
      spec.gen.num_pos = 48;
      spec.gen.num_flops = 320;
      spec.gen.target_depth = 24;
      spec.gen.seed = 0x4E7C01;
      spec.gen.max_fanout = 12;
      spec.gen.locality = 0.85;
      spec.gen.mix[static_cast<std::size_t>(GateType::kBuf)] = 0.12;
      spec.gen.mix[static_cast<std::size_t>(GateType::kInv)] = 0.18;
      spec.gen.chain_extend_prob = 0.80;
      spec.num_chains = 32;
      // netcard has by far the largest pattern count in Table III; the big
      // search space is what degrades its diagnosis quality.
      spec.atpg.max_patterns = 448;
      spec.atpg.patience = 4;
      spec.fail_memory_patterns = 3;
      break;
    case Profile::kLeon3mp:
      spec.name = "leon3mp";
      spec.gen.name = "leon3mp";
      spec.gen.num_gates = 5200;
      spec.gen.num_pis = 64;
      spec.gen.num_pos = 56;
      spec.gen.num_flops = 400;
      spec.gen.target_depth = 24;
      spec.gen.seed = 0x1E0301;
      spec.gen.max_fanout = 10;
      spec.gen.mix[static_cast<std::size_t>(GateType::kBuf)] = 0.11;
      spec.gen.mix[static_cast<std::size_t>(GateType::kInv)] = 0.16;
      spec.gen.chain_extend_prob = 0.75;
      spec.num_chains = 32;
      spec.atpg.max_patterns = 320;
      spec.atpg.patience = 3;
      spec.fail_memory_patterns = 3;
      break;
  }
  spec.chains_per_channel = 8;
  spec.atpg.seed = spec.gen.seed ^ 0xFEED;
  spec.tpi.fraction = 0.01;  // paper: at most 1% of the gate count
  spec.tpi.seed = spec.gen.seed ^ 0x79;
  return spec;
}

GeneratorConfig generator_for(const ProfileSpec& spec, DesignConfig config) {
  GeneratorConfig gen = spec.gen;
  if (config == DesignConfig::kSyn2) {
    // Re-synthesis at a different clock frequency: same "RTL" (profile),
    // different structural elaboration and deeper logic paths.
    gen.seed ^= 0x5A5A5A;
    gen.target_depth += 3;
    gen.locality = std::min(0.9, gen.locality + 0.05);
  }
  return gen;
}

PartitionOptions partition_for(const ProfileSpec& spec, DesignConfig config) {
  PartitionOptions opt;
  opt.seed = spec.partition_seed;
  opt.method = config == DesignConfig::kPar ? PartitionMethod::kLevelDriven
                                            : PartitionMethod::kMinCut;
  return opt;
}

}  // namespace m3dfl
