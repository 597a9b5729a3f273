// CSV renditions of every reproduced artefact — the raw series behind
// Tables I-III and Figs. 2-8, ready for external plotting. Used by
// `ftspm_tool report --out-dir <dir>`.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ftspm/fault/recovery.h"
#include "ftspm/report/suite_runner.h"

namespace ftspm {

/// One strike campaign as a single-row CSV (header + one data row):
/// strike counters first, then — when `recovery` is non-null — the
/// recovery-pipeline columns (zeros are emitted as "0", so the file is
/// byte-stable for a fixed campaign regardless of --jobs).
std::string campaign_csv(const CampaignResult& result,
                         const RecoveryCounters* recovery);

/// All artefact CSVs for one full evaluation: filename -> contents.
/// `rows` must come from run_suite(evaluator, ...); the case-study
/// artefacts are generated internally at full scale, their evaluations
/// handed `obs` (nullable).
std::map<std::string, std::string> export_all_csv(
    const StructureEvaluator& evaluator, const std::vector<SuiteRow>& rows,
    obs::Context* obs = nullptr);

/// Writes every entry of export_all_csv() under `directory` (created
/// if needed). Returns the file paths written.
std::vector<std::string> write_all_csv(const StructureEvaluator& evaluator,
                                       const std::vector<SuiteRow>& rows,
                                       const std::string& directory,
                                       obs::Context* obs = nullptr);

}  // namespace ftspm
