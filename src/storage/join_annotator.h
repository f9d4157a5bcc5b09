// Star-schema join queries and their ground-truth cardinalities.
//
// Backs the join-CE experiment (Table 7d): MSCN-style queries over a center
// (dimension) table joined to one or more fact tables via key–foreign-key
// equi-joins, with range predicates on every participating table.
#ifndef WARPER_STORAGE_JOIN_ANNOTATOR_H_
#define WARPER_STORAGE_JOIN_ANNOTATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/predicate.h"
#include "storage/table.h"

namespace warper::storage {

// A star schema: `center` has a primary key column; each fact table joins to
// it via a foreign-key column.
struct StarSchema {
  const Table* center = nullptr;
  size_t center_pk_col = 0;
  struct Fact {
    const Table* table = nullptr;
    size_t fk_col = 0;
  };
  std::vector<Fact> facts;
};

// A join query: which fact tables participate (join_mask bit i ↔ facts[i]),
// plus a range predicate per table. Non-participating fact predicates are
// ignored.
struct JoinQuery {
  uint32_t join_mask = 0;
  RangePredicate center_pred;
  std::vector<RangePredicate> fact_preds;

  size_t NumJoins() const;
};

class JoinAnnotator {
 public:
  explicit JoinAnnotator(const StarSchema* schema) : schema_(schema) {}

  // Exact cardinality of SELECT count(*) over the star join with the given
  // predicates. One hash-aggregation pass over each participating fact table
  // plus one scan of the center table.
  int64_t Count(const JoinQuery& query) const;

  std::vector<int64_t> BatchCount(const std::vector<JoinQuery>& queries) const;

  const StarSchema& schema() const { return *schema_; }

 private:
  const StarSchema* schema_;
};

}  // namespace warper::storage

#endif  // WARPER_STORAGE_JOIN_ANNOTATOR_H_
