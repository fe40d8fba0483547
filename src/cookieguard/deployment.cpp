#include "cookieguard/deployment.h"

#include "runtime/thread_pool.h"

namespace cg::cookieguard {

Deployment::Deployment(int threads, const CookieGuardConfig& config) {
  const int workers =
      threads <= 0 ? runtime::ThreadPool::hardware_threads() : threads;
  for (int w = 0; w < workers; ++w) {
    guards_.push_back(std::make_unique<CookieGuard>(config));
  }
}

std::function<std::vector<browser::Extension*>(int worker)>
Deployment::factory() {
  return [this](int worker) -> std::vector<browser::Extension*> {
    return {guards_.at(static_cast<std::size_t>(worker)).get()};
  };
}

CookieGuard::Stats Deployment::stats() const {
  CookieGuard::Stats total;
  for (const auto& guard : guards_) total.merge(guard->stats());
  return total;
}

}  // namespace cg::cookieguard
