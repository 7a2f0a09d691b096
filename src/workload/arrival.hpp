#pragma once

#include <cstdint>
#include <vector>

#include "simcore/rng.hpp"
#include "simcore/time.hpp"
#include "workload/generator.hpp"

namespace cbs::workload {

/// A batch of documents that arrived together.
struct Batch {
  std::size_t batch_index = 0;
  cbs::sim::SimTime arrival_time = 0.0;
  std::vector<Document> documents;
};

/// The arrival process of §V.A: "a batch of jobs from a particular bucket
/// would arrive every 3 minutes according to a poisson process with mean
/// arrival rate λ = 15 per batch."
class BatchArrivalProcess {
 public:
  struct Config {
    cbs::sim::SimDuration batch_interval = 180.0;  ///< 3 minutes
    double mean_jobs_per_batch = 15.0;             ///< Poisson λ
    std::size_t num_batches = 4;
    /// Batches are usually non-empty in production; resample a Poisson(λ)
    /// draw of zero when this is set.
    bool reject_empty_batches = true;
  };

  BatchArrivalProcess(Config config, WorkloadGenerator& generator,
                      cbs::sim::RngStream rng);

  /// Pre-draws the whole arrival schedule (deterministic per seed).
  [[nodiscard]] std::vector<Batch> generate_all();

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Config config_;
  WorkloadGenerator& generator_;
  cbs::sim::RngStream rng_;
};

}  // namespace cbs::workload
