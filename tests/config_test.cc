#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/config.h"
#include "util/error.h"

namespace m3dfl {
namespace {

TEST(ConfigTest, FourProfilesFourConfigs) {
  EXPECT_EQ(all_profiles().size(), 4u);
  EXPECT_EQ(all_configs().size(), 4u);
  std::set<std::string> names;
  for (Profile p : all_profiles()) names.insert(profile_name(p));
  EXPECT_EQ(names.size(), 4u);
  std::set<std::string> configs;
  for (DesignConfig c : all_configs()) configs.insert(config_name(c));
  EXPECT_EQ(configs.size(), 4u);
}

TEST(ConfigTest, ProfileSizesOrderedLikeThePaper) {
  // Table III ordering: AES < Tate < netcard < leon3mp by gate count;
  // netcard has the largest pattern budget.
  const ProfileSpec aes = profile_spec(Profile::kAes);
  const ProfileSpec tate = profile_spec(Profile::kTate);
  const ProfileSpec netcard = profile_spec(Profile::kNetcard);
  const ProfileSpec leon = profile_spec(Profile::kLeon3mp);
  EXPECT_LT(aes.gen.num_gates, tate.gen.num_gates);
  EXPECT_LT(tate.gen.num_gates, netcard.gen.num_gates);
  EXPECT_LT(netcard.gen.num_gates, leon.gen.num_gates);
  EXPECT_GT(netcard.atpg.max_patterns, aes.atpg.max_patterns);
  EXPECT_GT(netcard.atpg.max_patterns, leon.atpg.max_patterns);
}

TEST(ConfigTest, Syn2ReelaboratesDifferently) {
  const ProfileSpec spec = profile_spec(Profile::kAes);
  const GeneratorConfig syn1 = generator_for(spec, DesignConfig::kSyn1);
  const GeneratorConfig syn2 = generator_for(spec, DesignConfig::kSyn2);
  EXPECT_NE(syn1.seed, syn2.seed);
  EXPECT_GT(syn2.target_depth, syn1.target_depth);
  // TPI and Par reuse the Syn-1 elaboration.
  EXPECT_EQ(generator_for(spec, DesignConfig::kTpi).seed, syn1.seed);
  EXPECT_EQ(generator_for(spec, DesignConfig::kPar).seed, syn1.seed);
}

TEST(ConfigTest, ParUsesDifferentPartitioner) {
  const ProfileSpec spec = profile_spec(Profile::kTate);
  EXPECT_EQ(partition_for(spec, DesignConfig::kSyn1).method,
            PartitionMethod::kMinCut);
  EXPECT_EQ(partition_for(spec, DesignConfig::kPar).method,
            PartitionMethod::kLevelDriven);
}

TEST(ConfigTest, TpiBudgetIsOnePercent) {
  for (Profile p : all_profiles()) {
    EXPECT_DOUBLE_EQ(profile_spec(p).tpi.fraction, 0.01);
  }
}

TEST(ConfigTest, LargeProgramsHaveShallowFailMemory) {
  // The netcard/leon3mp production programs bound fail logging (DESIGN.md);
  // the small programs log everything.
  EXPECT_EQ(profile_spec(Profile::kAes).fail_memory_patterns, 0);
  EXPECT_EQ(profile_spec(Profile::kTate).fail_memory_patterns, 0);
  EXPECT_GT(profile_spec(Profile::kNetcard).fail_memory_patterns, 0);
  EXPECT_GT(profile_spec(Profile::kLeon3mp).fail_memory_patterns, 0);
  EXPECT_LE(profile_spec(Profile::kNetcard).fail_memory_patterns,
            profile_spec(Profile::kLeon3mp).fail_memory_patterns);
}

TEST(ConfigTest, ParseProfileAcceptsLowercaseNames) {
  EXPECT_EQ(parse_profile("aes"), Profile::kAes);
  EXPECT_EQ(parse_profile("tate"), Profile::kTate);
  EXPECT_EQ(parse_profile("netcard"), Profile::kNetcard);
  EXPECT_EQ(parse_profile("leon3mp"), Profile::kLeon3mp);
  try {
    parse_profile("aes2");
    FAIL() << "unknown profile accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("aes2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("leon3mp"), std::string::npos);
  }
}

TEST(ConfigTest, ParseConfigNamesAllFour) {
  EXPECT_EQ(parse_config("syn1"), DesignConfig::kSyn1);
  EXPECT_EQ(parse_config("tpi"), DesignConfig::kTpi);
  EXPECT_EQ(parse_config("syn2"), DesignConfig::kSyn2);
  EXPECT_EQ(parse_config("par"), DesignConfig::kPar);
  EXPECT_THROW(parse_config("Syn-1"), Error);
}

// ---- read_train_options: happy path ----------------------------------------

TrainOptions read_opts(const std::string& text) {
  std::istringstream is(text);
  return read_train_options(is, {}, "train.cfg");
}

TEST(ConfigTest, TrainOptionsReadsAllKeys) {
  const TrainOptions out = read_opts(
      "# training config\n"
      "epochs 42\n"
      "batch_size 4\n"
      "lr 0.25\n"
      "seed 99\n"
      "min_improvement 0.001\n"
      "patience 7\n");
  EXPECT_EQ(out.epochs, 42);
  EXPECT_EQ(out.batch_size, 4);
  EXPECT_DOUBLE_EQ(out.lr, 0.25);
  EXPECT_EQ(out.seed, 99u);
  EXPECT_DOUBLE_EQ(out.min_improvement, 0.001);
  EXPECT_EQ(out.patience, 7);
}

TEST(ConfigTest, TrainOptionsUnlistedKeysKeepDefaults) {
  TrainOptions defaults;
  defaults.epochs = 123;
  std::istringstream is("lr 0.5\n");
  const TrainOptions out = read_train_options(is, defaults, "train.cfg");
  EXPECT_EQ(out.epochs, 123);
  EXPECT_DOUBLE_EQ(out.lr, 0.5);
}

TEST(ConfigTest, TrainOptionsEmptyAndCommentOnlyStreamsAreFine) {
  EXPECT_EQ(read_opts("").epochs, TrainOptions{}.epochs);
  EXPECT_EQ(read_opts("# just a comment\n\n   \n").epochs,
            TrainOptions{}.epochs);
}

// ---- read_train_options: malformed-input corpus -----------------------------

std::string opts_error(const std::string& text) {
  try {
    read_opts(text);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "malformed train config accepted:\n" << text;
  return {};
}

TEST(ConfigTest, TrainOptionsRejectsUnknownKey) {
  const std::string msg = opts_error("learning_rate 0.1\n");
  EXPECT_NE(msg.find("train.cfg line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown key 'learning_rate'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("epochs"), std::string::npos) << msg;  // lists options
}

TEST(ConfigTest, TrainOptionsRejectsDuplicateKey) {
  const std::string msg = opts_error("epochs 5\nepochs 6\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate key 'epochs'"), std::string::npos) << msg;
}

TEST(ConfigTest, TrainOptionsRejectsMissingValue) {
  const std::string msg = opts_error("epochs\n");
  EXPECT_NE(msg.find("missing value"), std::string::npos) << msg;
}

TEST(ConfigTest, TrainOptionsRejectsTrailingGarbage) {
  const std::string msg = opts_error("epochs 5 6\n");
  EXPECT_NE(msg.find("trailing garbage '6'"), std::string::npos) << msg;
}

TEST(ConfigTest, TrainOptionsRejectsNonNumericValues) {
  EXPECT_NE(opts_error("epochs ten\n").find("non-numeric"),
            std::string::npos);
  EXPECT_NE(opts_error("lr fast\n").find("non-numeric"), std::string::npos);
  EXPECT_NE(opts_error("epochs 5x\n").find("non-numeric"),
            std::string::npos);
  EXPECT_NE(opts_error("seed 0x10\n").find("non-numeric"),
            std::string::npos);
}

// A signed value on an unsigned key used to wrap ("seed -1" read as
// 2^64-1); the strict parser rejects it like any other non-number.
TEST(ConfigTest, TrainOptionsRejectsNegativeSeed) {
  const std::string msg = opts_error("seed -1\n");
  EXPECT_NE(msg.find("train.cfg line 1: non-numeric value '-1' for key "
                     "'seed'"),
            std::string::npos)
      << msg;
}

TEST(ConfigTest, TrainOptionsRejectsOutOfRangeValues) {
  EXPECT_NE(opts_error("epochs 0\n").find("epochs must be >= 1"),
            std::string::npos);
  EXPECT_NE(opts_error("batch_size 0\n").find("batch_size must be >= 1"),
            std::string::npos);
  EXPECT_NE(opts_error("lr 0\n").find("lr must be > 0"), std::string::npos);
  EXPECT_NE(opts_error("lr -1\n").find("lr must be > 0"), std::string::npos);
  EXPECT_NE(
      opts_error("min_improvement -0.5\n").find("min_improvement must be"),
      std::string::npos);
  EXPECT_NE(opts_error("patience 0\n").find("patience must be >= 1"),
            std::string::npos);
}

// ---- read_train_options: ParseLimits guardrails -----------------------------

std::string opts_error_with(const std::string& text,
                            const ParseLimits& limits) {
  std::istringstream is(text);
  try {
    read_train_options(is, {}, "train.cfg", limits);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "adversarial train config accepted:\n" << text;
  return {};
}

TEST(ConfigLimitsTest, OverlongLineCited) {
  ParseLimits limits;
  limits.max_line_bytes = 32;
  const std::string msg = opts_error_with(
      "epochs 5\n# " + std::string(200, 'x') + "\n", limits);
  EXPECT_NE(msg.find("train.cfg line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("limit exceeded: line bytes"), std::string::npos) << msg;
}

TEST(ConfigLimitsTest, LineCountCapCited) {
  ParseLimits limits;
  limits.max_config_lines = 3;
  const std::string msg =
      opts_error_with("# a\n# b\n# c\n# d\n", limits);
  EXPECT_NE(msg.find("train.cfg line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("limit exceeded: config lines"), std::string::npos)
      << msg;
}

TEST(ConfigLimitsTest, DefaultsClearRealConfigs) {
  // The defaults are a DoS guardrail, not a policy on legitimate files: a
  // full config with comments must pass untouched.
  EXPECT_EQ(read_opts("# comment\nepochs 9\nlr 0.5\n").epochs, 9);
}

}  // namespace
}  // namespace m3dfl
