// Data-drift operators and telemetry (§2 "data drift", §3.1, §4.1.2).
//
// The paper's data drifts are inserts / appends / deletes / updates to rows;
// its c1 experiment "sorts the dataset by one column and truncates the table
// in half to differentiate the data distributions". The telemetry mirrors
// what a DBMS would report: the fraction of rows changed since a snapshot,
// plus cardinality shift on a handful of canary predicates.
#ifndef WARPER_STORAGE_DATA_DRIFT_H_
#define WARPER_STORAGE_DATA_DRIFT_H_

#include <cstdint>
#include <vector>

#include "storage/annotator.h"
#include "storage/predicate.h"
#include "storage/table.h"
#include "util/rng.h"

namespace warper::storage {

// Appends `fraction`·NumRows new rows sampled from existing rows with each
// numeric value shifted by `shift` × column range (a distribution-moving
// append, like the Power-dataset experiment in §2).
void AppendShiftedRows(Table* table, double fraction, double shift,
                       util::Rng* rng);

// Overwrites the numeric cells of `fraction`·NumRows random rows with values
// re-drawn uniformly from the column domain (an in-place update drift).
void UpdateRandomRows(Table* table, double fraction, util::Rng* rng);

// The paper's c1 drift: sort by `col` ascending, then truncate to half the
// rows. The remaining data covers only the lower half of `col`'s domain, so
// every previously-computed label is stale.
void SortTruncateHalf(Table* table, size_t col);

// Canary predicates: a fixed set of random single/two-column ranges whose
// cardinalities are tracked across drift checks.
std::vector<RangePredicate> MakeCanaryPredicates(const Table& table, size_t n,
                                                 util::Rng* rng);

// Mean relative cardinality change of the canaries vs. their `baseline`
// counts (values in [0, 1]; 0 = unchanged).
double CanaryShift(const Annotator& annotator,
                   const std::vector<RangePredicate>& canaries,
                   const std::vector<int64_t>& baseline);

}  // namespace warper::storage

#endif  // WARPER_STORAGE_DATA_DRIFT_H_
