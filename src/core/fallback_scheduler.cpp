#include "core/fallback_scheduler.h"

#include "cp/search.h"

namespace mrcp {

cp::Solution fallback_schedule(const cp::Model& model) {
  cp::SetTimesSearch search(model,
                            cp::make_job_ranks(model, cp::JobOrdering::kEdf));
  cp::SearchLimits limits;
  limits.postpone_tries = 0;
  limits.stop_after_first_solution = true;
  return search.run(limits, /*incumbent=*/nullptr, /*stats=*/nullptr);
}

}  // namespace mrcp
