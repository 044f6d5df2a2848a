#include "core/service.h"

#include <utility>

namespace soda {

// ---------------------------------------------------------------------------
// SnippetBarrier
// ---------------------------------------------------------------------------

void SnippetBarrier::Register(size_t callbacks, std::function<void()> work) {
  std::lock_guard<std::mutex> lock(mu_);
  expected_ += callbacks;
  work_.push_back(std::move(work));
}

void SnippetBarrier::Deliver(std::exception_ptr exception) {
  std::lock_guard<std::mutex> lock(mu_);
  ++delivered_;
  if (exception) {
    ++exceptions_;
    if (!first_exception_) first_exception_ = std::move(exception);
  }
  if (delivered_ >= expected_) done_.notify_all();
}

void SnippetBarrier::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  // The work delivers through Deliver(), which takes mu_: run it unlocked.
  while (!work_.empty()) {
    std::vector<std::function<void()>> work;
    work.swap(work_);
    lock.unlock();
    for (std::function<void()>& run : work) run();
    lock.lock();
  }
  done_.wait(lock, [&] { return delivered_ >= expected_; });
}

size_t SnippetBarrier::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expected_ - delivered_;
}

size_t SnippetBarrier::delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

size_t SnippetBarrier::callback_exceptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exceptions_;
}

std::exception_ptr SnippetBarrier::first_exception() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_exception_;
}

}  // namespace soda
