#include "ftspm/report/csv_export.h"

#include <filesystem>
#include <fstream>

#include "ftspm/core/endurance.h"
#include "ftspm/util/error.h"
#include "ftspm/util/table.h"
#include "ftspm/workload/case_study.h"

namespace ftspm {

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string table1_csv(const Program& program,
                       const ProgramProfile& profile) {
  CsvWriter csv({"block", "reads", "writes", "avg_reads_per_ref",
                 "avg_writes_per_ref", "stack_calls", "max_stack_bytes",
                 "lifetime_cycles"});
  for (const BlockProfile& bp : profile.blocks) {
    csv.add_row({program.block(bp.id).name, std::to_string(bp.reads),
                 std::to_string(bp.writes),
                 num(bp.avg_reads_per_reference()),
                 num(bp.avg_writes_per_reference()),
                 std::to_string(bp.stack_calls),
                 std::to_string(bp.max_stack_bytes),
                 std::to_string(bp.lifetime_cycles)});
  }
  return csv.render();
}

std::string table2_csv(const Program& program, const MappingPlan& plan,
                       const SpmLayout& layout) {
  CsvWriter csv({"block", "mapped", "region", "reason"});
  for (const BlockMapping& m : plan.mappings()) {
    csv.add_row({program.block(m.block).name, m.mapped() ? "yes" : "no",
                 m.mapped() ? layout.region(m.region).name : "-",
                 to_string(m.reason)});
  }
  return csv.render();
}

std::string table3_csv(const SystemResult& stt, const SystemResult& ft) {
  CsvWriter csv({"write_threshold", "pure_stt_seconds", "ftspm_seconds"});
  for (double threshold : kEnduranceThresholds) {
    auto seconds = [&](const EnduranceReport& rep) {
      return rep.unlimited() ? std::string("inf")
                             : num(rep.seconds_to(threshold));
    };
    csv.add_row({num(threshold), seconds(stt.endurance),
                 seconds(ft.endurance)});
  }
  return csv.render();
}

std::string fig_distribution_csv(const StructureEvaluator& evaluator,
                                 const std::vector<SuiteRow>& rows) {
  const SpmLayout& layout = evaluator.ftspm_layout();
  std::vector<std::string> headers{"benchmark"};
  for (const SpmRegionSpec& r : layout.regions()) {
    headers.push_back(r.name + "_reads");
    headers.push_back(r.name + "_writes");
  }
  CsvWriter csv(headers);
  for (const SuiteRow& row : rows) {
    std::vector<std::string> cells{row.name};
    for (RegionId rid = 0; rid < layout.region_count(); ++rid) {
      cells.push_back(std::to_string(row.ftspm.run.regions[rid].reads));
      cells.push_back(std::to_string(row.ftspm.run.regions[rid].writes));
    }
    csv.add_row(cells);
  }
  return csv.render();
}

std::string fig_metric_csv(
    const std::vector<SuiteRow>& rows,
    double (*metric)(const SystemResult&)) {
  CsvWriter csv({"benchmark", "ftspm", "pure_sram", "pure_stt"});
  for (const SuiteRow& row : rows) {
    csv.add_row({row.name, num(metric(row.ftspm)), num(metric(row.pure_sram)),
                 num(metric(row.pure_stt))});
  }
  return csv.render();
}

}  // namespace

std::string campaign_csv(const CampaignResult& result,
                         const RecoveryCounters* recovery) {
  std::vector<std::string> headers{"strikes", "masked", "dre", "due", "sdc",
                                   "vulnerability"};
  std::vector<std::string> cells{
      std::to_string(result.strikes), std::to_string(result.masked),
      std::to_string(result.dre),     std::to_string(result.due),
      std::to_string(result.sdc),     num(result.vulnerability())};
  if (recovery != nullptr) {
    for (const char* h :
         {"demand_reads", "corrections", "scrub_passes", "scrub_words",
          "scrub_corrections", "refetches", "unrecoverable", "sdc_reads",
          "recovery_cycles", "recovery_energy_pj", "mean_repair_cycles"})
      headers.emplace_back(h);
    cells.push_back(std::to_string(recovery->demand_reads));
    cells.push_back(std::to_string(recovery->corrections));
    cells.push_back(std::to_string(recovery->scrub_passes));
    cells.push_back(std::to_string(recovery->scrub_words));
    cells.push_back(std::to_string(recovery->scrub_corrections));
    cells.push_back(std::to_string(recovery->refetches));
    cells.push_back(std::to_string(recovery->unrecoverable));
    cells.push_back(std::to_string(recovery->sdc_reads));
    cells.push_back(std::to_string(recovery->recovery_cycles));
    cells.push_back(num(recovery->recovery_energy_pj));
    cells.push_back(num(recovery->mean_repair_cycles()));
  }
  CsvWriter csv(headers);
  csv.add_row(cells);
  return csv.render();
}

std::map<std::string, std::string> export_all_csv(
    const StructureEvaluator& evaluator, const std::vector<SuiteRow>& rows,
    obs::Context* obs) {
  std::map<std::string, std::string> out;

  // Case-study artefacts (Tables I-III, Fig. 2).
  const Workload cs = make_case_study();
  const ProgramProfile prof = profile_workload(cs);
  const SystemResult ft = evaluator.evaluate_ftspm(cs, prof, obs);
  const SystemResult stt = evaluator.evaluate_pure_stt(cs, prof, obs);
  out["table1_profile.csv"] = table1_csv(cs.program, prof);
  out["table2_mapping.csv"] =
      table2_csv(cs.program, ft.plan, evaluator.ftspm_layout());
  out["table3_endurance.csv"] = table3_csv(stt, ft);
  {
    CsvWriter csv({"region", "reads", "writes"});
    const SpmLayout& layout = evaluator.ftspm_layout();
    for (RegionId rid = 0; rid < layout.region_count(); ++rid)
      csv.add_row({layout.region(rid).name,
                   std::to_string(ft.run.regions[rid].reads),
                   std::to_string(ft.run.regions[rid].writes)});
    out["fig2_case_rw_dist.csv"] = csv.render();
  }

  // Suite artefacts (Figs. 4-8).
  out["fig4_rw_distribution.csv"] = fig_distribution_csv(evaluator, rows);
  out["fig5_vulnerability.csv"] = fig_metric_csv(
      rows, [](const SystemResult& r) { return r.avf.vulnerability(); });
  out["fig6_static_energy_pj.csv"] = fig_metric_csv(
      rows,
      [](const SystemResult& r) { return r.run.spm_static_energy_pj; });
  out["fig7_dynamic_energy_pj.csv"] = fig_metric_csv(
      rows,
      [](const SystemResult& r) { return r.run.spm_dynamic_energy_pj(); });
  out["fig8_wear_rate_per_s.csv"] = fig_metric_csv(
      rows, [](const SystemResult& r) {
        return r.endurance.max_word_write_rate_per_s;
      });
  return out;
}

std::vector<std::string> write_all_csv(const StructureEvaluator& evaluator,
                                       const std::vector<SuiteRow>& rows,
                                       const std::string& directory,
                                       obs::Context* obs) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec)
    throw InvalidArgument("cannot create directory '" + directory + "'");
  std::vector<std::string> written;
  for (const auto& [name, contents] : export_all_csv(evaluator, rows, obs)) {
    const std::string path = directory + "/" + name;
    std::ofstream file(path, std::ios::binary);
    if (!file.good())
      throw InvalidArgument("cannot open '" + path + "' for writing");
    file << contents;
    if (!file.good()) throw Error("write to '" + path + "' failed");
    written.push_back(path);
  }
  return written;
}

}  // namespace ftspm
