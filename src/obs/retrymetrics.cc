#include "src/obs/retrymetrics.h"

#include <string>

#include "src/base/check.h"

namespace soccluster {

void AttachRetryMetrics(MetricRegistry* metrics, std::string_view service,
                        RetryBackoff* backoff, RetryBudget* budget) {
  SOC_CHECK(metrics != nullptr);
  const MetricLabels labels = {{"service", std::string(service)}};
  if (backoff != nullptr) {
    Counter* attempts = metrics->GetCounter("retry.attempts", labels);
    HistogramMetric* backoff_ms =
        metrics->GetHistogram("retry.backoff_ms", labels);
    backoff->set_attempt_observer([attempts, backoff_ms](Duration wait) {
      attempts->Increment();
      backoff_ms->Observe(wait.ToMillis());
    });
  }
  if (budget != nullptr) {
    Gauge* tokens = metrics->GetGauge("retry.budget.tokens", labels);
    Counter* denied = metrics->GetCounter("retry.budget.denied", labels);
    tokens->Set(budget->tokens());
    budget->set_budget_observer([tokens, denied](double level, bool deny) {
      tokens->Set(level);
      if (deny) {
        denied->Increment();
      }
    });
  }
}

}  // namespace soccluster
