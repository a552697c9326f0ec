#include "bench_report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "mc/kernel.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace phodis::bench {

PresetResult finalize_preset(std::string name, std::uint64_t photons,
                             std::vector<double> rep_pps) {
  if (rep_pps.empty()) {
    throw std::invalid_argument("finalize_preset: need at least one rep");
  }
  PresetResult result;
  result.name = std::move(name);
  result.photons = photons;
  result.rep_pps = std::move(rep_pps);
  std::vector<double> sorted = result.rep_pps;
  std::sort(sorted.begin(), sorted.end());
  result.best_pps = sorted.back();
  result.median_pps = sorted[sorted.size() / 2];
  return result;
}

PresetResult measure_preset(const std::string& name, const mc::Kernel& kernel,
                            const PhotonRun& run,
                            const MeasureOptions& options) {
  {  // warm-up: prime code paths and allocations, then discard
    mc::SimulationTally tally = kernel.make_tally();
    util::Xoshiro256pp rng(options.seed ^ 0x9E3779B97F4A7C15ULL);
    run(options.warmup_photons, rng, tally);
  }

  std::vector<double> rep_pps;
  rep_pps.reserve(static_cast<std::size_t>(options.reps));
  for (int rep = 0; rep < options.reps; ++rep) {
    mc::SimulationTally tally = kernel.make_tally();
    util::Xoshiro256pp rng(options.seed + static_cast<std::uint64_t>(rep));
    const util::Stopwatch timer;
    run(options.photons, rng, tally);
    const double seconds = timer.seconds();
    rep_pps.push_back(static_cast<double>(options.photons) / seconds);
  }
  return finalize_preset(name, options.photons, std::move(rep_pps));
}

void write_json(const Report& report, const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"bench_kernel\",\n  \"schema\": 3,\n"
         "  \"unit\": \"photons_per_sec\",\n  \"presets\": [\n";
  for (std::size_t i = 0; i < report.presets.size(); ++i) {
    const PresetResult& p = report.presets[i];
    out << "    {\n";
    out << "      \"name\": \"" << p.name << "\",\n";
    out << "      \"mode\": \"" << p.mode << "\",\n";
    out << "      \"isa\": \"" << p.isa << "\",\n";
    out << "      \"photons\": " << p.photons << ",\n";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.1f", p.best_pps);
    out << "      \"photons_per_sec_best\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof buffer, "%.1f", p.median_pps);
    out << "      \"photons_per_sec_median\": " << buffer << ",\n";
    out << "      \"rep_photons_per_sec\": [";
    for (std::size_t r = 0; r < p.rep_pps.size(); ++r) {
      std::snprintf(buffer, sizeof buffer, "%.1f", p.rep_pps[r]);
      out << (r == 0 ? "" : ", ") << buffer;
    }
    out << "]\n    }" << (i + 1 < report.presets.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("bench_report: cannot open " + path);
  }
  file << out.str();
}

namespace {

/// Extract the first JSON string value following `key` at or after `from`.
/// Returns npos-terminated empty string when absent.
std::string scan_string(const std::string& text, const std::string& key,
                        std::size_t from, std::size_t* end_pos) {
  const std::size_t key_pos = text.find("\"" + key + "\"", from);
  if (key_pos == std::string::npos) return {};
  const std::size_t open = text.find('"', text.find(':', key_pos));
  const std::size_t close = text.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return {};
  *end_pos = close;
  return text.substr(open + 1, close - open - 1);
}

}  // namespace

std::vector<BaselineEntry> read_baseline(const std::string& path) {
  std::vector<BaselineEntry> result;
  std::ifstream file(path);
  if (!file) return result;
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  std::size_t cursor = 0;
  while (true) {
    std::size_t after_name = cursor;
    const std::string name = scan_string(text, "name", cursor, &after_name);
    if (name.empty()) break;
    // The schema-v2 "mode" field sits between this preset's "name" and the
    // next one's; a v1 file has no "mode" at all. Only accept a match that
    // stays inside the current preset object so v1 files (and the final
    // v2 preset) fall back to "scalar" instead of stealing a later key.
    const std::size_t next_name = text.find("\"name\"", after_name);
    std::size_t after_mode = after_name;
    std::string mode = scan_string(text, "mode", after_name, &after_mode);
    if (mode.empty() || after_mode > next_name) mode = "scalar";
    // Schema v3 added "isa" the same way; older files had one packet
    // build (AVX2) and the scalar loop at the default ISA.
    std::size_t after_isa = after_name;
    std::string isa = scan_string(text, "isa", after_name, &after_isa);
    if (isa.empty() || after_isa > next_name) {
      isa = mode == "packet" ? "avx2" : "baseline";
    }
    const std::size_t value_key =
        text.find("\"photons_per_sec_best\"", after_name);
    if (value_key == std::string::npos || value_key > next_name) break;
    const std::size_t colon = text.find(':', value_key);
    if (colon == std::string::npos) break;
    try {
      result.push_back(
          BaselineEntry{name, mode, isa, std::stod(text.substr(colon + 1))});
    } catch (const std::exception&) {
      // Malformed value (truncated/hand-edited file): treat the whole
      // baseline as unusable rather than aborting the bench run.
      result.clear();
      return result;
    }
    cursor = colon;
  }
  return result;
}

CheckResult check_against_baseline(const Report& report,
                                   const std::string& baseline_path,
                                   double tolerance) {
  CheckResult check;
  const auto baseline = read_baseline(baseline_path);
  if (baseline.empty()) {
    check.lines.push_back("baseline " + baseline_path +
                          " absent or empty; skipping regression check");
    return check;
  }
  check.baseline_found = true;

  const auto matches = [](const PresetResult& preset,
                           const BaselineEntry& entry) {
    return entry.name == preset.name && entry.mode == preset.mode &&
           entry.isa == preset.isa;
  };
  for (const PresetResult& preset : report.presets) {
    const auto it = std::find_if(
        baseline.begin(), baseline.end(),
        [&](const BaselineEntry& entry) { return matches(preset, entry); });
    const std::string label =
        preset.name + "/" + preset.mode + "/" + preset.isa;
    char line[256];
    if (it == baseline.end()) {
      // Skip-if-absent, per (name, mode, isa): a binary run with
      // --kernel-mode both checks cleanly against a baseline that never
      // recorded this mode or ISA build.
      std::snprintf(line, sizeof line,
                    "%-34s %10.0f pps skipped (no baseline)", label.c_str(),
                    preset.best_pps);
      check.lines.push_back(line);
      continue;
    }
    const double floor = (1.0 - tolerance) * it->best_pps;
    const bool regressed = preset.best_pps < floor;
    std::snprintf(line, sizeof line,
                  "%-34s %10.0f pps vs baseline %10.0f (floor %10.0f) %s",
                  label.c_str(), preset.best_pps, it->best_pps, floor,
                  regressed ? "REGRESSED" : "ok");
    check.lines.push_back(line);
    if (regressed) check.regressions.push_back(label);
  }
  for (const BaselineEntry& entry : baseline) {
    const bool measured = std::any_of(
        report.presets.begin(), report.presets.end(),
        [&](const PresetResult& preset) { return matches(preset, entry); });
    if (measured) continue;
    const std::string label = entry.name + "/" + entry.mode + "/" + entry.isa;
    char line[256];
    std::snprintf(line, sizeof line, "%-34s skipped (not measured here)",
                  label.c_str());
    check.lines.push_back(line);
  }
  return check;
}

}  // namespace phodis::bench
