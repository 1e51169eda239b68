#include "arch/thread_context.hpp"

#include "util/check.hpp"

namespace vexsim {

ThreadContext::ThreadContext(int asid, std::shared_ptr<const Program> program)
    : asid_(asid), program_(std::move(program)) {
  VEXSIM_CHECK(program_ != nullptr);
  VEXSIM_CHECK_MSG(program_->finalized(),
                   "program must be finalize()d before execution");
  VEXSIM_CHECK(program_->size() != 0);
  code_size_ = static_cast<std::uint32_t>(program_->size());
  decoded_insns_ = program_->decoded->data();
  decoded_ops_ = program_->decoded->ops();
  instr_addr_ = program_->instr_addr.data();
  std::vector<PageImage::Segment> segments;
  segments.reserve(program_->data.size());
  for (const DataSegment& seg : program_->data)
    segments.push_back({seg.addr, seg.image});
  image_ = std::make_shared<const PageImage>(segments);
  respawn();
  respawns = 0;
}

void ThreadContext::respawn() {
  pc = 0;
  state = RunState::kReady;
  seq = 0;
  mem_block_until = 0;
  fetch_ready_at = 0;
  next_issue_at = 0;
  fetch_done = false;
  redirect_target = -1;
  halt_at_completion = false;
  regs.clear();
  issue = IssueProgress{};
  pending_writes.clear();
  rf_buffer.clear();
  store_buffer.clear();
  channels.fill(ChannelState{});
  channels_dirty = false;
  fault = FaultInfo{};
  mem.reset(image_);  // drops the pages the finished run wrote
  ++respawns;
}

std::uint64_t ThreadContext::arch_fingerprint(int clusters) const {
  const std::uint64_t r = regs.fingerprint(clusters);
  const std::uint64_t m = mem.fingerprint();
  // Simple 64-bit mix of the two digests.
  std::uint64_t h = r ^ (m + 0x9E3779B97F4A7C15ull + (r << 6) + (r >> 2));
  return h;
}

}  // namespace vexsim
