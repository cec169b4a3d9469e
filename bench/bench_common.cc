#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/trace.h"

namespace topkdup::bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

int64_t Flags::GetInt(const std::string& key, int64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
}

std::string Flags::GetString(const std::string& key,
                             const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Flags::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1";
}

std::vector<int> Flags::GetIntList(const std::string& key,
                                   const std::vector<int>& fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<int> out;
  for (const std::string& piece : Split(it->second, ',')) {
    if (!piece.empty()) {
      out.push_back(static_cast<int>(std::strtol(piece.c_str(), nullptr, 10)));
    }
  }
  return out;
}

TablePrinter::TablePrinter(std::vector<std::string> headers,
                           std::vector<int> widths)
    : headers_(std::move(headers)), widths_(std::move(widths)) {}

void TablePrinter::PrintHeader() const {
  PrintRule();
  std::string line = "|";
  for (size_t i = 0; i < headers_.size(); ++i) {
    line += StrFormat(" %*s |", widths_[i], headers_[i].c_str());
  }
  std::printf("%s\n", line.c_str());
  PrintRule();
}

void TablePrinter::PrintRow(const std::vector<std::string>& cells) const {
  std::string line = "|";
  for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
    line += StrFormat(" %*s |", widths_[i], cells[i].c_str());
  }
  std::printf("%s\n", line.c_str());
}

void TablePrinter::PrintRule() const {
  std::string line = "+";
  for (int w : widths_) {
    line.append(static_cast<size_t>(w) + 2, '-');
    line += "+";
  }
  std::printf("%s\n", line.c_str());
}

std::string Pct(double numerator, double denominator) {
  if (denominator == 0.0) return "n/a";
  return StrFormat("%.2f", 100.0 * numerator / denominator);
}

std::string Num(double v, int decimals) {
  return StrFormat("%.*f", decimals, v);
}

int ApplyThreadsFlag(const Flags& flags) {
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  if (threads > 0) SetParallelism(threads);
  return ParallelismLevel();
}

DeadlineFlags ApplyDeadlineFlags(const Flags& flags) {
  DeadlineFlags budget;
  budget.deadline_ms = flags.GetInt("deadline-ms", 0);
  budget.work_budget =
      static_cast<uint64_t>(flags.GetInt("work-budget", 0));
  return budget;
}

Deadline DeadlineFlags::Make() const {
  if (work_budget > 0) return Deadline::WithWorkBudget(work_budget);
  return Deadline::AfterMillis(deadline_ms);
}

void PrintDegradation(int k, const DegradationInfo& info) {
  if (!info.degraded) return;
  std::printf("K=%d degraded: %s in stage %s at level %d (%s)\n", k,
              DeadlineReasonName(info.reason), info.stage.c_str(),
              info.level, info.partial_stage ? "partial" : "boundary");
}

Observability ApplyObservabilityFlags(const Flags& flags) {
  Observability obs;
  obs.metrics_path = flags.GetString("metrics-json", "");
  obs.prom_path = flags.GetString("metrics-prom", "");
  obs.trace_path = flags.GetString("trace-json", "");
  obs.explain_json_path = flags.GetString("explain-json", "");
  obs.explain_text_path = flags.GetString("explain-text", "");
  obs.explain_sample_rate = flags.GetDouble("explain-sample-rate", 1.0);
  if (!obs.trace_path.empty()) trace::StartRecording();
  return obs;
}

namespace {

void AppendJsonPairs(
    std::string* out,
    const std::vector<std::pair<std::string, double>>& pairs) {
  bool first = true;
  for (const auto& [key, value] : pairs) {
    if (!first) *out += ", ";
    first = false;
    *out += StrFormat("\"%s\": %.6f", key.c_str(), value);
  }
}

void AppendLevelJson(std::string* out, const dedup::LevelStats& lv) {
  *out += StrFormat(
      "{\"n\": %zu, \"m\": %zu, \"M\": %.6f, \"n_prime\": %zu, "
      "\"records_collapsed\": %zu, \"groups_pruned\": %zu, "
      "\"cpn_growth_iterations\": %zu, \"cpn_edges_examined\": %zu, "
      "\"blocking_probes\": %zu, \"predicate_evals\": %zu, "
      "\"postings_scanned\": %zu, \"postings_decoded\": %zu, "
      "\"blocks_decoded\": %zu, \"blocks_skipped\": %zu, "
      "\"collapse_seconds\": %.6f, \"lower_bound_seconds\": %.6f, "
      "\"prune_seconds\": %.6f}",
      lv.n_after_collapse, lv.m, lv.M, lv.n_after_prune,
      lv.records_collapsed, lv.groups_pruned, lv.cpn_growth_iterations,
      lv.cpn_edges_examined, lv.blocking_probes, lv.predicate_evals,
      lv.postings_scanned, lv.postings_decoded, lv.blocks_decoded,
      lv.blocks_skipped, lv.collapse_seconds, lv.lower_bound_seconds,
      lv.prune_seconds);
}

}  // namespace

void WriteBenchJson(
    const std::string& path, const std::string& figure,
    const std::vector<std::pair<std::string, double>>& params,
    const std::vector<std::pair<std::string, double>>& scalars,
    const std::vector<BenchRun>& runs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::string body;
  body += "{\n  \"schema_version\": 1,\n";
  body += StrFormat("  \"figure\": \"%s\",\n", figure.c_str());
  body += "  \"params\": {";
  AppendJsonPairs(&body, params);
  body += "},\n  \"scalars\": {";
  AppendJsonPairs(&body, scalars);
  body += "},\n  \"runs\": [\n";
  for (size_t r = 0; r < runs.size(); ++r) {
    const BenchRun& run = runs[r];
    body += StrFormat("    {\"k\": %d, \"seconds\": %.6f, \"levels\": [",
                      run.k, run.seconds);
    for (size_t l = 0; l < run.levels.size(); ++l) {
      if (l > 0) body += ", ";
      AppendLevelJson(&body, run.levels[l]);
    }
    body += StrFormat("]}%s\n", r + 1 == runs.size() ? "" : ",");
  }
  body += "  ],\n  \"metrics\": ";
  body += metrics::Registry::Global().Snapshot().ToJson();
  body += "\n}\n";
  std::fwrite(body.data(), 1, body.size(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

void ExportBenchArtifacts(
    const std::string& json_path, const Observability& obs,
    const std::string& figure,
    const std::vector<std::pair<std::string, double>>& params,
    const std::vector<std::pair<std::string, double>>& scalars,
    const std::vector<BenchRun>& runs) {
  if (!json_path.empty()) {
    WriteBenchJson(json_path, figure, params, scalars, runs);
  }
  if (!obs.metrics_path.empty() && obs.metrics_path != json_path) {
    WriteBenchJson(obs.metrics_path, figure, params, scalars, runs);
  }
  if (!obs.prom_path.empty()) {
    if (metrics::WritePrometheusText(metrics::Registry::Global().Snapshot(),
                                     obs.prom_path)) {
      std::printf("wrote %s\n", obs.prom_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", obs.prom_path.c_str());
    }
  }
  if (!obs.trace_path.empty()) {
    trace::StopRecording();
    if (trace::WriteChromeTrace(obs.trace_path)) {
      std::printf("wrote %s (%zu trace events)\n", obs.trace_path.c_str(),
                  trace::EventCount());
    } else {
      std::fprintf(stderr, "cannot write %s\n", obs.trace_path.c_str());
    }
  }
}

void WriteExplainJson(const std::string& path, const std::string& figure,
                      const std::vector<ExplainRun>& runs) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::string body;
  body += "{\n  \"schema_version\": 1,\n";
  body += StrFormat("  \"figure\": \"%s\",\n", figure.c_str());
  body += "  \"reports\": [\n";
  bool first = true;
  for (const ExplainRun& run : runs) {
    if (run.report == nullptr) continue;
    if (!first) body += ",\n";
    first = false;
    body += StrFormat("    {\"k\": %d, \"report\": %s}", run.k,
                      run.report->ToJson().c_str());
  }
  body += "\n  ]\n}\n";
  std::fwrite(body.data(), 1, body.size(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

void WriteExplainText(const std::string& path, const std::string& figure,
                      const std::vector<ExplainRun>& runs) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (const ExplainRun& run : runs) {
    if (run.report == nullptr) continue;
    const std::string header =
        StrFormat("=== %s K=%d ===\n", figure.c_str(), run.k);
    std::fwrite(header.data(), 1, header.size(), out);
    const std::string text = run.report->ToText();
    std::fwrite(text.data(), 1, text.size(), out);
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

void PrintLevelCounters(const std::vector<BenchRun>& runs) {
  if (runs.empty()) return;
  std::printf("\nPer-level instrumentation (collapsed / pruned / CPN iters "
              "/ CPN edges / probes / predicate evals / index decode "
              "work):\n");
  for (const BenchRun& run : runs) {
    for (size_t l = 0; l < run.levels.size(); ++l) {
      const dedup::LevelStats& lv = run.levels[l];
      std::printf(
          "  K=%-5d L%zu: collapsed=%zu pruned=%zu cpn_iters=%zu "
          "cpn_edges=%zu probes=%zu evals=%zu scanned=%zu decoded=%zu "
          "dblocks=%zu skipped=%zu\n",
          run.k, l + 1, lv.records_collapsed, lv.groups_pruned,
          lv.cpn_growth_iterations, lv.cpn_edges_examined,
          lv.blocking_probes, lv.predicate_evals, lv.postings_scanned,
          lv.postings_decoded, lv.blocks_decoded, lv.blocks_skipped);
    }
  }
}

}  // namespace topkdup::bench
