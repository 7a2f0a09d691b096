#include "workload/arrival.hpp"

#include <cassert>

#include "stats/distributions.hpp"

namespace cbs::workload {

BatchArrivalProcess::BatchArrivalProcess(Config config, WorkloadGenerator& generator,
                                         cbs::sim::RngStream rng)
    : config_(config), generator_(generator), rng_(rng) {
  assert(config.batch_interval > 0.0);
  assert(config.mean_jobs_per_batch > 0.0);
  assert(config.num_batches > 0);
}

std::vector<Batch> BatchArrivalProcess::generate_all() {
  std::vector<Batch> batches;
  batches.reserve(config_.num_batches);
  for (std::size_t b = 0; b < config_.num_batches; ++b) {
    std::uint64_t n = cbs::stats::sample_poisson(rng_, config_.mean_jobs_per_batch);
    while (config_.reject_empty_batches && n == 0) {
      n = cbs::stats::sample_poisson(rng_, config_.mean_jobs_per_batch);
    }
    Batch batch;
    batch.batch_index = b;
    batch.arrival_time = static_cast<double>(b) * config_.batch_interval;
    batch.documents = generator_.batch(n);
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace cbs::workload
