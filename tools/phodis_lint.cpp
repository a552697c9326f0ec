// phodis_lint CLI: walk the tree, build the project model, run the
// determinism rules, report.
//
//   phodis_lint --root . [--stats] [--baseline tools/lint_baseline.txt]
//               [--list-suppressions] [--sarif FILE] [--jobs N] [paths...]
//
// Default paths are src tools bench (relative to --root). Per-file model
// building and the per-file passes (D1–D5, D7) run on an exec::ThreadPool;
// the cross-TU passes (D6, D8) run once over the aggregated model. Output
// is file:line: rule: message, sorted by path then line regardless of the
// thread count — the tool's own output order is deterministic for the same
// reason the code it checks must be. Exit 1 on any unsuppressed violation
// or a broken ratchet, 2 on usage/IO errors.
#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "exec/threadpool.hpp"
#include "lint/linter.hpp"
#include "lint/model.hpp"
#include "lint/passes.hpp"
#include "lint/sarif.hpp"
#include "util/log.hpp"

namespace fs = std::filesystem;
using phodis::lint::Diagnostic;
using phodis::lint::FileModel;
using phodis::lint::ProjectModel;
using phodis::lint::Stats;

namespace {

bool has_source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void usage() {
  std::cout
      << "usage: phodis_lint [--root DIR] [--stats] [--baseline FILE]\n"
         "                   [--list-suppressions] [--sarif FILE]\n"
         "                   [--jobs N] [paths...]\n"
         "  paths default to: src tools bench\n";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool stats_requested = false;
  bool list_suppressions = false;
  std::string baseline_path;
  std::string sarif_path;
  std::size_t jobs = 0;  // 0 = one per core
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--stats") {
      stats_requested = true;
    } else if (arg == "--list-suppressions") {
      list_suppressions = true;
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      // Parsed whole as a count: "abc", "-1" and "4x" are usage errors.
      const std::string value = argv[++i];
      const char* end = value.data() + value.size();
      const auto [stop, error] = std::from_chars(value.data(), end, jobs);
      if (error != std::errc() || stop != end) {
        phodis::util::log_error() << "phodis_lint: --jobs takes a "
                                     "non-negative integer, not \""
                                  << value << "\"";
        usage();
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      phodis::util::log_error() << "phodis_lint: unknown option " << arg;
      usage();
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) roots = {"src", "tools", "bench"};

  // Gather files deterministically: collect, then sort by relative path.
  std::vector<fs::path> files;
  try {
    for (const std::string& r : roots) {
      const fs::path dir = root / r;
      if (!fs::exists(dir)) {
        phodis::util::log_error()
            << "phodis_lint: no such path: " << dir.string();
        return 2;
      }
      if (fs::is_regular_file(dir)) {
        files.push_back(dir);
        continue;
      }
      for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() && has_source_extension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    }
  } catch (const std::exception& error) {
    phodis::util::log_error() << "phodis_lint: " << error.what();
    return 2;
  }

  std::vector<std::pair<std::string, fs::path>> rel_files;
  rel_files.reserve(files.size());
  for (const fs::path& f : files) {
    rel_files.emplace_back(fs::relative(f, root).generic_string(), f);
  }
  std::sort(rel_files.begin(), rel_files.end());
  rel_files.erase(std::unique(rel_files.begin(), rel_files.end()),
                  rel_files.end());

  // Build every file's model and run its per-file passes on the pool.
  // Slots are pre-sized and indexed, so the result is identical at any
  // thread count; the final sort pins the report order either way.
  if (jobs == 0) jobs = phodis::exec::ThreadPool::default_thread_count();
  std::vector<FileModel> models(rel_files.size());
  std::vector<std::vector<Diagnostic>> file_diags(rel_files.size());
  std::string io_error;
  try {
    phodis::exec::ThreadPool pool(jobs);
    pool.parallel_for(
        rel_files.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            models[i] = phodis::lint::build_file_model(
                rel_files[i].first, read_file(rel_files[i].second));
            file_diags[i] = phodis::lint::run_file_passes(models[i]);
          }
        });
  } catch (const std::exception& error) {
    phodis::util::log_error() << "phodis_lint: " << error.what();
    return 2;
  }

  // Cross-TU passes over the aggregated model, then suppression + order.
  Stats stats;
  stats.files_scanned = static_cast<int>(rel_files.size());
  std::vector<Diagnostic> all;
  for (std::vector<Diagnostic>& d : file_diags) {
    all.insert(all.end(), std::make_move_iterator(d.begin()),
               std::make_move_iterator(d.end()));
  }
  const ProjectModel pm = ProjectModel::build(std::move(models));
  std::vector<Diagnostic> project_diags =
      phodis::lint::run_project_passes(pm);
  all.insert(all.end(), std::make_move_iterator(project_diags.begin()),
             std::make_move_iterator(project_diags.end()));
  phodis::lint::apply_suppressions(all, pm);
  phodis::lint::sort_diagnostics(all);
  for (const Diagnostic& d : all) stats.add(d);

  for (const Diagnostic& d : all) {
    if (!d.suppressed || list_suppressions) {
      std::cout << phodis::lint::format_diagnostic(d) << "\n";
    }
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      phodis::util::log_error()
          << "phodis_lint: cannot write " << sarif_path;
      return 2;
    }
    out << phodis::lint::to_sarif(all);
  }

  if (stats_requested) {
    std::cout << "phodis_lint: scanned " << stats.files_scanned << " files, "
              << stats.total_violations() << " violations, "
              << stats.total_suppressions() << " suppressions\n";
    for (const char* rule : phodis::lint::kAllRules) {
      const auto v = stats.violations.find(rule);
      const auto s = stats.suppressions.find(rule);
      std::cout << "  " << rule << ": "
                << (v == stats.violations.end() ? 0 : v->second)
                << " violations, "
                << (s == stats.suppressions.end() ? 0 : s->second)
                << " suppressions\n";
    }
  }

  bool ratchet_broken = false;
  if (!baseline_path.empty()) {
    try {
      const auto baseline =
          phodis::lint::parse_baseline(read_file(baseline_path));
      std::vector<std::string> improvements;
      const auto failures =
          phodis::lint::check_baseline(stats, baseline, &improvements);
      for (const std::string& f : failures) {
        std::cout << "phodis_lint: ratchet: " << f << "\n";
      }
      for (const std::string& msg : improvements) {
        std::cout << "phodis_lint: note: " << msg << "\n";
      }
      ratchet_broken = !failures.empty();
    } catch (const std::exception& error) {
      phodis::util::log_error() << "phodis_lint: " << error.what();
      return 2;
    }
  }

  if (stats.total_violations() > 0) {
    std::cout << "phodis_lint: " << stats.total_violations()
              << " unsuppressed violation(s) — fix, or justify with "
                 "'// phodis-lint: allow(Dn) reason'\n";
    return 1;
  }
  return ratchet_broken ? 1 : 0;
}
