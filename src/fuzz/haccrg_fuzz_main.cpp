// haccrg-fuzz: front door of the seeded kernel fuzzer.
//
//   generate  expand seeds into kernel specs (print or save them)
//   run       full campaign: every generated kernel through every
//             detector, violations auto-shrunk to minimal specs
//   shrink    minimize one failing (or class-detecting) spec file
//   corpus    replay checked-in spec repros as ordinary test cases
//
// Exit codes: 0 clean; 1 at least one campaign violation; 2 usage
// error; 3 I/O or internal failure. Append-only — scripts branch on it.
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/spec.hpp"
#include "swrace/grace.hpp"

namespace {

using namespace haccrg;

int usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "haccrg-fuzz: %s\n\n", error);
  std::fprintf(
      stderr, "%s",
      "usage: haccrg-fuzz <command> [args]\n"
      "\n"
      "commands:\n"
      "  generate --seed N [--count N] [--out DIR]\n"
      "      Expand seeds N..N+count-1 into kernel specs. Prints each\n"
      "      spec (with its oracle summary) or writes DIR/<name>.spec.\n"
      "  run --seed N [--count N] [--scratch DIR] [--progress N]\n"
      "      Campaign: every generated kernel through the hardware RDUs\n"
      "      (1/2/8 engine threads), trace replay, both software\n"
      "      detectors, the static verifier, and sampled fault plans,\n"
      "      asserting the ground-truth oracle each way. Failures are\n"
      "      auto-shrunk; --save-failures DIR writes the minimal specs.\n"
      "  shrink --spec FILE [--out FILE]\n"
      "      Minimize FILE while it still produces a campaign violation\n"
      "      (or, with --class NAME, still detects that race class).\n"
      "  corpus --dir DIR [--scratch DIR]\n"
      "      Run every .spec file in DIR as a full campaign case.\n"
      "  disasm --spec FILE [--grace]\n"
      "      Print the generated program's disassembly and oracle pairs.\n"
      "\n"
      "options:\n"
      "  --seed N             base seed (default 1)\n"
      "  --count N            kernels to generate/run (default 200 for run)\n"
      "  --scratch DIR        existing trace scratch dir (default /tmp, per-pid)\n"
      "  --save-failures DIR  write shrunk failing specs into DIR\n"
      "  --class NAME         shrink target: a race class, not a violation\n"
      "                       (shared-epoch, global-epoch, fence, lockset,\n"
      "                       intra-warp-waw)\n"
      "  --fault-every N      fault-feed every Nth case (default 8, 0=off)\n"
      "  --max-cycles N       per-run watchdog (default 20000000)\n"
      "  --no-determinism / --no-replay / --no-sw / --no-grace /\n"
      "  --no-static          skip one check family\n"
      "  --racy-only / --safe-only   restrict the fragment library\n"
      "  --progress N         heartbeat line every N kernels\n");
  return 2;
}

bool parse_u32(const std::string& s, u32& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  out = static_cast<u32>(std::stoul(s));
  return true;
}

bool parse_u64(const std::string& s, u64& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  out = std::stoull(s);
  return true;
}

struct Cli {
  std::string command;
  u64 seed = 1;
  u32 count = 0;  // 0 = command default
  std::string out;
  std::string scratch;
  std::string spec_path;
  std::string dir;
  std::string save_failures;
  std::string shrink_class;
  u32 progress = 0;
  bool disasm_grace = false;
  fuzz::FuzzConfig fuzz_config;
  fuzz::CampaignConfig campaign;
};

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  return out.good();
}

/// Point `campaign` at a trace scratch directory when its replay check
/// needs one; false, after a diagnosis, on failure. A user-given
/// --scratch must already be a writable directory: checking it here
/// makes a bad path an I/O error (exit 3) before any case runs, instead
/// of a trace-write violation in every one.
bool set_scratch(const Cli& cli, fuzz::CampaignConfig& campaign) {
  campaign.scratch_dir.clear();
  if (!campaign.check_replay) return true;
  if (!cli.scratch.empty()) {
    struct stat st {};
    if (stat(cli.scratch.c_str(), &st) != 0 || !S_ISDIR(st.st_mode) ||
        access(cli.scratch.c_str(), W_OK | X_OK) != 0) {
      std::fprintf(stderr, "haccrg-fuzz: scratch directory '%s' is missing or not writable\n",
                   cli.scratch.c_str());
      return false;
    }
    campaign.scratch_dir = cli.scratch;
    return true;
  }
  const std::string dir =
      "/tmp/haccrg-fuzz-" + std::to_string(static_cast<unsigned>(getpid()));
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "haccrg-fuzz: cannot create scratch directory '%s'\n", dir.c_str());
    return false;
  }
  campaign.scratch_dir = dir;
  return true;
}

void print_violations(const std::string& name, const std::vector<std::string>& violations) {
  std::printf("FAIL %s\n", name.c_str());
  for (const std::string& v : violations) std::printf("  %s\n", v.c_str());
}

/// One "# oracle" line per pair; a pair completeness skips is marked
/// schedule-dependent.
void print_oracle(const fuzz::RaceOracle& oracle) {
  for (const fuzz::OraclePair& pair : oracle.pairs) {
    std::printf("# oracle %s %s pcs", std::string(fuzz::oracle_class_name(pair.cls)).c_str(),
                pair.space == rd::MemSpace::kShared ? "shared" : "global");
    for (u32 pc : pair.pcs) std::printf(" %u", pc);
    std::printf(" (%s)%s\n", pair.note.c_str(),
                pair.schedule_dependent ? " schedule-dependent" : "");
  }
}

void print_summary(const fuzz::CampaignSummary& summary) {
  std::printf("fuzz: %u kernels, %u failing\n", summary.cases, summary.failures);
  std::printf("oracle pairs by class:");
  for (u32 c = 0; c < fuzz::kNumOracleClasses; ++c)
    std::printf(" %s=%llu", std::string(fuzz::oracle_class_name(static_cast<fuzz::OracleClass>(c))).c_str(),
                static_cast<unsigned long long>(summary.class_pairs[c]));
  std::printf("\n");
}

int cmd_generate(const Cli& cli) {
  const u32 count = cli.count == 0 ? 1 : cli.count;
  for (u32 i = 0; i < count; ++i) {
    const fuzz::KernelSpec spec = fuzz::spec_from_seed(cli.seed + i, cli.fuzz_config);
    const fuzz::GeneratedKernel kernel = fuzz::generate(spec);
    if (!cli.out.empty()) {
      const std::string path = cli.out + "/" + spec.name + ".spec";
      if (!write_file(path, spec.serialize())) {
        std::fprintf(stderr, "haccrg-fuzz: cannot write %s\n", path.c_str());
        return 3;
      }
      std::printf("%s: %zu fragments, %zu oracle pairs -> %s\n", spec.name.c_str(),
                  spec.fragments.size(), kernel.oracle.pairs.size(), path.c_str());
    } else {
      std::printf("%s", spec.serialize().c_str());
      print_oracle(kernel.oracle);
    }
  }
  return 0;
}

int cmd_run(const Cli& cli) {
  Cli local = cli;
  if (!set_scratch(cli, local.campaign)) return 3;
  const u32 count = cli.count == 0 ? 200 : cli.count;
  const fuzz::CampaignSummary summary =
      fuzz::run_campaign(cli.seed, count, cli.fuzz_config, local.campaign, cli.progress);
  for (const fuzz::FailedCase& failed : summary.failed) {
    print_violations(failed.spec.name, failed.violations);
    std::printf("  shrunk repro:\n%s", failed.shrunk.serialize().c_str());
    if (!cli.save_failures.empty()) {
      const std::string path = cli.save_failures + "/" + failed.spec.name + ".spec";
      if (!write_file(path, failed.shrunk.serialize()))
        std::fprintf(stderr, "haccrg-fuzz: cannot write %s\n", path.c_str());
      else
        std::printf("  saved: %s\n", path.c_str());
    }
  }
  print_summary(summary);
  return summary.ok() ? 0 : 1;
}

int cmd_shrink(const Cli& cli) {
  std::string text;
  if (!read_file(cli.spec_path, text)) {
    std::fprintf(stderr, "haccrg-fuzz: cannot read %s\n", cli.spec_path.c_str());
    return 3;
  }
  fuzz::KernelSpec spec;
  const Status parsed = fuzz::KernelSpec::parse(text, spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "haccrg-fuzz: %s: %s\n", cli.spec_path.c_str(),
                 parsed.to_string().c_str());
    return 3;
  }

  fuzz::SpecPredicate pred;
  if (!cli.shrink_class.empty()) {
    bool found = false;
    for (u32 c = 0; c < fuzz::kNumOracleClasses; ++c) {
      const auto cls = static_cast<fuzz::OracleClass>(c);
      if (fuzz::oracle_class_name(cls) == cli.shrink_class) {
        pred = fuzz::detects_class_predicate(cls);
        found = true;
        break;
      }
    }
    if (!found) return usage(("unknown race class '" + cli.shrink_class + "'").c_str());
  } else {
    Cli local = cli;
    if (!set_scratch(cli, local.campaign)) return 3;
    pred = fuzz::violation_predicate(local.campaign);
  }

  if (!pred(spec)) {
    std::fprintf(stderr, "haccrg-fuzz: %s does not exhibit the target property\n",
                 cli.spec_path.c_str());
    return 1;
  }
  const fuzz::ShrinkResult result = fuzz::shrink(spec, pred);
  std::fprintf(stderr, "shrink: %u steps, %u evaluations\n", result.steps, result.evaluations);
  if (!cli.out.empty()) {
    if (!write_file(cli.out, result.spec.serialize())) {
      std::fprintf(stderr, "haccrg-fuzz: cannot write %s\n", cli.out.c_str());
      return 3;
    }
  } else {
    std::printf("%s", result.spec.serialize().c_str());
  }
  return 0;
}

int cmd_disasm(const Cli& cli) {
  std::string text;
  if (!read_file(cli.spec_path, text)) {
    std::fprintf(stderr, "haccrg-fuzz: cannot read %s\n", cli.spec_path.c_str());
    return 3;
  }
  fuzz::KernelSpec spec;
  const Status parsed = fuzz::KernelSpec::parse(text, spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "haccrg-fuzz: %s: %s\n", cli.spec_path.c_str(),
                 parsed.to_string().c_str());
    return 3;
  }
  fuzz::GeneratedKernel kernel = fuzz::generate(spec);
  if (cli.disasm_grace) {
    // Show what the detectors actually execute, not what the generator
    // emitted — instrumented control flow is where rewriter bugs live.
    kernel.program = swrace::instrument_grace(kernel.program, {}, nullptr);
  }
  std::printf("%s", kernel.program.disassemble().c_str());
  print_oracle(kernel.oracle);
  return 0;
}

int cmd_corpus(const Cli& cli) {
  DIR* dir = opendir(cli.dir.c_str());
  if (dir == nullptr) {
    std::fprintf(stderr, "haccrg-fuzz: cannot open %s\n", cli.dir.c_str());
    return 3;
  }
  std::vector<std::string> files;
  while (dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() > 5 && name.substr(name.size() - 5) == ".spec")
      files.push_back(cli.dir + "/" + name);
  }
  closedir(dir);
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "haccrg-fuzz: no .spec files in %s\n", cli.dir.c_str());
    return 3;
  }

  Cli local = cli;
  if (!set_scratch(cli, local.campaign)) return 3;
  u32 failures = 0;
  u32 index = 0;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "haccrg-fuzz: cannot read %s\n", path.c_str());
      return 3;
    }
    fuzz::KernelSpec spec;
    const Status parsed = fuzz::KernelSpec::parse(text, spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "haccrg-fuzz: %s: %s\n", path.c_str(), parsed.to_string().c_str());
      return 3;
    }
    const fuzz::CaseResult result = fuzz::run_case(spec, local.campaign, index++);
    if (result.ok()) {
      std::printf("ok %s (%llu hw races)\n", path.c_str(),
                  static_cast<unsigned long long>(result.hw_races));
    } else {
      print_violations(path, result.violations);
      ++failures;
    }
  }
  std::printf("corpus: %zu repros, %u failing\n", files.size(), failures);
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Cli cli;
  cli.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag, std::string& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "haccrg-fuzz: %s needs a value\n", flag);
        return false;
      }
      out = argv[++i];
      return true;
    };
    auto bad = [](const char* flag) {
      std::fprintf(stderr, "haccrg-fuzz: bad value for %s\n", flag);
      return 2;
    };
    std::string v;
    if (arg == "--seed") {
      if (!value("--seed", v)) return 2;
      if (!parse_u64(v, cli.seed)) return bad("--seed");
    } else if (arg == "--count") {
      if (!value("--count", v)) return 2;
      if (!parse_u32(v, cli.count) || cli.count == 0) return bad("--count");
    } else if (arg == "--out") {
      if (!value("--out", cli.out)) return 2;
    } else if (arg == "--scratch") {
      if (!value("--scratch", cli.scratch)) return 2;
    } else if (arg == "--spec") {
      if (!value("--spec", cli.spec_path)) return 2;
    } else if (arg == "--dir") {
      if (!value("--dir", cli.dir)) return 2;
    } else if (arg == "--save-failures") {
      if (!value("--save-failures", cli.save_failures)) return 2;
    } else if (arg == "--class") {
      if (!value("--class", cli.shrink_class)) return 2;
    } else if (arg == "--fault-every") {
      if (!value("--fault-every", v)) return 2;
      if (!parse_u32(v, cli.campaign.fault_every)) return bad("--fault-every");
    } else if (arg == "--progress") {
      if (!value("--progress", v)) return 2;
      if (!parse_u32(v, cli.progress)) return bad("--progress");
    } else if (arg == "--max-cycles") {
      if (!value("--max-cycles", v)) return 2;
      if (!parse_u64(v, cli.campaign.max_cycles)) return bad("--max-cycles");
    } else if (arg == "--no-determinism") {
      cli.campaign.check_determinism = false;
    } else if (arg == "--no-replay") {
      cli.campaign.check_replay = false;
    } else if (arg == "--no-sw") {
      cli.campaign.check_sw = false;
    } else if (arg == "--no-grace") {
      cli.campaign.check_grace = false;
    } else if (arg == "--no-static") {
      cli.campaign.check_static = false;
    } else if (arg == "--grace") {
      cli.disasm_grace = true;
    } else if (arg == "--racy-only") {
      cli.fuzz_config.safe_fragments = false;
    } else if (arg == "--safe-only") {
      cli.fuzz_config.racy_fragments = false;
    } else {
      return usage(("unknown option '" + arg + "'").c_str());
    }
  }

  if (cli.command == "generate") return cmd_generate(cli);
  if (cli.command == "run") return cmd_run(cli);
  if (cli.command == "shrink") {
    if (cli.spec_path.empty()) return usage("shrink needs --spec");
    return cmd_shrink(cli);
  }
  if (cli.command == "disasm") {
    if (cli.spec_path.empty()) return usage("disasm needs --spec");
    return cmd_disasm(cli);
  }
  if (cli.command == "corpus") {
    if (cli.dir.empty()) return usage("corpus needs --dir");
    return cmd_corpus(cli);
  }
  return usage(("unknown command '" + cli.command + "'").c_str());
}
