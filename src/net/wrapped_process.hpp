// The inner-process driver every wrapper process shares (ReliableProcess in
// net/reliable.hpp, ExplicitProcess in election/explicit_elect.hpp, the run
// recorder in net/recorder.cpp).  It owns the inner process, records the
// inner's scheduling verbs instead of letting them reach the engine, and
// steps the inner exactly when the engine itself would have: on wake, while
// running, when messages arrive, or when its sleep deadline fires, and never
// after a halt.  A wrapper woken for its own reasons (a retransmit deadline,
// an announcement) must not hand a sleeping inner a spurious early round.
//
// Each wrapper keeps only what differs: the one Context call it intercepts
// (an InnerCtx subclass) and how it turns the inner's wish into its own
// scheduling verb after the step.  Wrappers stack; unwrap<T>() reaches
// through any chain.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "net/process.hpp"

namespace ule {

class WrappedProcess : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope> inbox) final {
    run_step(ctx, inbox, /*wake=*/true);
  }
  void on_round(Context& ctx, std::span<const Envelope> inbox) final {
    run_step(ctx, inbox, /*wake=*/false);
  }

  /// Keeps the inner observable; wrappers with counters report theirs first.
  void export_metrics(MetricsSink& sink) const override {
    inner_->export_metrics(sink);
  }

  const Process* inner() const { return inner_.get(); }

 protected:
  /// The inner process's last scheduling verb (it persists across rounds:
  /// an idle process stays idle until a message arrives).
  enum class Wish : std::uint8_t { Running, Idle, Sleep, Halt };

  /// The Context the inner runs behind: everything passes through to the
  /// engine's context except the scheduling verbs, which are recorded.
  class InnerCtx : public Context {
   public:
    InnerCtx(Context& real, WrappedProcess& wrapper)
        : real_(real), wrapper_(wrapper) {}

    NodeId slot() const override { return real_.slot(); }
    std::size_t degree() const override { return real_.degree(); }
    bool anonymous() const override { return real_.anonymous(); }
    Uid uid() const override { return real_.uid(); }
    Round round() const override { return real_.round(); }
    Rng& rng() override { return real_.rng(); }
    const Knowledge& knowledge() const override { return real_.knowledge(); }
    void send(PortId port, const FlatMsg& msg,
              const LinkHeader& link) override {
      real_.send(port, msg, link);
    }
    void set_status(Status s) override { real_.set_status(s); }
    Status status() const override { return real_.status(); }

    void idle() override { wrapper_.wish_ = Wish::Idle; }
    void sleep_until(Round r) override {
      wrapper_.wish_ = Wish::Sleep;
      wrapper_.deadline_ = r;
    }
    void halt() override { wrapper_.wish_ = Wish::Halt; }

   protected:
    Context& real_;

   private:
    friend class WrappedProcess;
    WrappedProcess& wrapper_;
  };

  explicit WrappedProcess(std::unique_ptr<Process> inner)
      : inner_(std::move(inner)) {}

  /// One engine step of the wrapper (on_wake when `wake`, else on_round).
  virtual void run_step(Context& ctx, std::span<const Envelope> inbox,
                        bool wake) = 0;

  /// Step the inner through `ictx` if the engine would have this round.
  void step_inner(InnerCtx& ictx, std::span<const Envelope> inbox,
                  bool wake) {
    const bool due =
        wake || wish_ == Wish::Running || !inbox.empty() ||
        (wish_ == Wish::Sleep && ictx.real_.round() >= deadline_);
    if (!due || wish_ == Wish::Halt) return;
    wish_ = Wish::Running;
    if (wake) {
      inner_->on_wake(ictx, inbox);
    } else {
      inner_->on_round(ictx, inbox);
    }
  }

  Wish inner_wish() const { return wish_; }
  /// The inner's sleep deadline (meaningful while inner_wish() is Sleep).
  Round inner_deadline() const { return deadline_; }

 private:
  std::unique_ptr<Process> inner_;
  Wish wish_ = Wish::Running;
  Round deadline_ = 0;
};

/// The first process of type T in the wrapper chain starting at `p` (`p`
/// itself included), or nullptr.
template <class T>
const T* unwrap(const Process* p) {
  while (p != nullptr) {
    if (const auto* t = dynamic_cast<const T*>(p)) return t;
    const auto* w = dynamic_cast<const WrappedProcess*>(p);
    p = w != nullptr ? w->inner() : nullptr;
  }
  return nullptr;
}

}  // namespace ule
