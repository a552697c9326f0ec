// Tiny command-line option parser used by examples, benches and the
// cluster tools, and run_main, the one way into their main functions.
// Supports `--key value`, `--key=value`, and boolean `--flag` forms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace phodis::util {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// Value of --key, or fallback when absent.
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Value of --key as an integer, or fallback when absent. Throws
  /// std::invalid_argument naming the flag when the value is not an
  /// integer, only partly one ("2e5", "12x") or out of range.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// Value of --key as a count (a non-negative integer), or fallback when
  /// absent. Throws std::invalid_argument naming the flag when the value
  /// is negative, not a number, only partly one ("2e5") or out of range.
  std::uint64_t get_count(const std::string& key,
                          std::uint64_t fallback) const;
  /// Value of --key as a number ("2.75", "-1e3"), or fallback when absent.
  /// Throws std::invalid_argument naming the flag when the value is not a
  /// number or only partly one ("2s", "1.5.2").
  double get_double(const std::string& key, double fallback) const;
  /// True when --key appears (with no value or any value other than
  /// "false"/"0"/"no").
  bool get_flag(const std::string& key) const;

  bool has(const std::string& key) const;

  /// Non-option arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// The whole body of a bench, example or cluster-tool main:
///   return util::run_main(argc, argv, run);
/// Builds the CliArgs and returns run(args). A std::exception out of run,
/// a malformed flag included, becomes one error line, "<program>: <what>"
/// with argv[0]'s basename as the program, and exit status 1.
int run_main(int argc, char** argv, int (*run)(const CliArgs& args));

}  // namespace phodis::util
