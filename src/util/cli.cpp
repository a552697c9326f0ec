#include "util/cli.hpp"

#include <charconv>
#include <exception>
#include <stdexcept>
#include <system_error>

#include "util/log.hpp"

namespace phodis::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself an option; otherwise a
    // bare boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "true";
    }
  }
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

namespace {

/// `text` parsed whole as a T by std::from_chars. Anything else, a partial
/// parse included, throws std::invalid_argument naming --key and `takes`.
template <typename T>
T parse_whole(const std::string& key, const std::string& text,
              const char* takes) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    throw std::invalid_argument("--" + key + " takes " + takes + ", not \"" +
                                text + "\"");
  }
  return value;
}

}  // namespace

std::int64_t CliArgs::get_int(const std::string& key,
                              std::int64_t fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return parse_whole<std::int64_t>(key, it->second, "an integer");
}

std::uint64_t CliArgs::get_count(const std::string& key,
                                 std::uint64_t fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return parse_whole<std::uint64_t>(key, it->second,
                                    "a non-negative integer");
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return parse_whole<double>(key, it->second, "a number");
}

bool CliArgs::get_flag(const std::string& key) const {
  auto it = options_.find(key);
  if (it == options_.end()) return false;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

bool CliArgs::has(const std::string& key) const {
  return options_.count(key) != 0;
}

int run_main(int argc, char** argv, int (*run)(const CliArgs& args)) {
  try {
    return run(CliArgs(argc, argv));
  } catch (const std::exception& error) {
    const std::string path = argc > 0 ? argv[0] : "";
    log_error() << path.substr(path.rfind('/') + 1) << ": " << error.what();
    return 1;
  }
}

}  // namespace phodis::util
