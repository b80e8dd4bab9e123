#include "util/metrics.h"

#include <sstream>

namespace metro {

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

std::string MetricsRegistry::Report() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << " = " << c->value() << '\n';
  }
  return os.str();
}

}  // namespace metro
