#include "core/context.hpp"

#include <mutex>

#include "common/check.hpp"
#include "threading/topology.hpp"

namespace ag {

struct ScratchPool {
  std::mutex mutex;
  // Node-indexed free lists (grown on demand): a lease refills the list
  // of the node it was acquired on, so a scratch whose pages were
  // first-touched by packing on that node keeps serving callers there.
  // Single-node hosts only ever touch list 0 — the pre-NUMA behavior.
  std::vector<std::vector<std::unique_ptr<GemmScratch>>> free_lists;
};

Context::ScratchLease::~ScratchLease() {
  if (!pool_ || !scratch_) return;
  std::lock_guard lock(pool_->mutex);
  if (pool_->free_lists.size() <= static_cast<std::size_t>(node_))
    pool_->free_lists.resize(static_cast<std::size_t>(node_) + 1);
  pool_->free_lists[static_cast<std::size_t>(node_)].push_back(std::move(scratch_));
}

Context::ScratchLease Context::acquire_scratch() const {
  const Topology& topo = Topology::get();
  const int node = topo.num_nodes() > 1 ? topo.current_node() : 0;
  std::unique_ptr<GemmScratch> scratch;
  {
    std::lock_guard lock(scratch_pool_->mutex);
    auto& lists = scratch_pool_->free_lists;
    if (lists.size() > static_cast<std::size_t>(node) &&
        !lists[static_cast<std::size_t>(node)].empty()) {
      scratch = std::move(lists[static_cast<std::size_t>(node)].back());
      lists[static_cast<std::size_t>(node)].pop_back();
    }
  }
  if (!scratch) scratch = std::make_unique<GemmScratch>();
  return ScratchLease(scratch_pool_, std::move(scratch), node);
}

Context::Context() : Context(default_microkernel().name, 1) {}

Context::Context(const std::string& kernel_name, int threads)
    : kernel_(&microkernel_by_name(kernel_name)),
      block_sizes_(default_block_sizes(kernel_->shape, threads)),
      threads_(threads),
      scratch_pool_(std::make_shared<ScratchPool>()) {
  AG_CHECK(threads >= 1);
}

Context::Context(KernelShape shape, int threads)
    : kernel_(&best_microkernel(shape)),
      block_sizes_(default_block_sizes(shape, threads)),
      threads_(threads),
      scratch_pool_(std::make_shared<ScratchPool>()) {
  AG_CHECK(threads >= 1);
}

Context& Context::set_kernel(const std::string& kernel_name) {
  kernel_ = &microkernel_by_name(kernel_name);
  if (kernel_->shape.mr != block_sizes_.mr || kernel_->shape.nr != block_sizes_.nr) {
    // Shape changed: the old cache blocks no longer apply.
    block_sizes_ = default_block_sizes(kernel_->shape, threads_);
  }
  tunable_ = false;  // explicit configuration is a pin
  return *this;
}

Context& Context::set_block_sizes(const BlockSizes& bs) {
  bs.validate();
  AG_CHECK_MSG(bs.mr == kernel_->shape.mr && bs.nr == kernel_->shape.nr,
               "block sizes " << bs.to_string() << " do not match kernel shape "
                              << kernel_->shape.to_string());
  block_sizes_ = bs;
  tunable_ = false;  // explicit configuration is a pin
  return *this;
}

Context& Context::set_threads(int threads) {
  AG_CHECK(threads >= 1);
  if (threads != threads_) pool_.reset();
  threads_ = threads;
  return *this;
}

ThreadPool& Context::pool() const {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  return *pool_;
}

Context& Context::default_context() {
  static Context ctx = [] {
    Context c;
    c.set_tunable(true);
    return c;
  }();
  return ctx;
}

}  // namespace ag
