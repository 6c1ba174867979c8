#include "compiler.h"

#include <chrono>

namespace diffuse {
namespace kir {

double
wallSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

std::shared_ptr<CompiledKernel>
JitCompiler::finish(KernelFunction fn, double wall_start)
{
    auto out = std::make_shared<CompiledKernel>();
    out->pipeline = optimize(fn);
    // Lower the strip-mined executable plan as part of compilation so
    // the memoizer amortizes it together with codegen (paper §5.2).
    out->plan = std::make_shared<const ExecutablePlan>(lowerPlan(fn));
    out->cost.measuredSeconds = wallSeconds() - wall_start;
    out->cost.modeledSeconds =
        out->cost.measuredSeconds +
        backendCodegenSeconds(fn.instructionCount(), fn.nests.size());
    out->fn = std::move(fn);

    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.plansLowered++;
        stats_.measuredSeconds += out->cost.measuredSeconds;
        stats_.modeledSeconds += out->cost.modeledSeconds;
        stats_.loopsFused += out->pipeline.loopsFused;
        stats_.localsEliminated += out->pipeline.localsEliminated;
    }
    return out;
}

std::shared_ptr<CompiledKernel>
JitCompiler::compileSingle(KernelFunction fn)
{
    double t0 = wallSeconds();
    return finish(std::move(fn), t0);
}

std::shared_ptr<CompiledKernel>
JitCompiler::compileFused(const std::string &name,
                          std::span<const KernelFunction *const> parts,
                          std::span<const std::vector<int>> buffer_maps,
                          std::span<const std::vector<int>> scalar_maps,
                          std::vector<BufferInfo> fused_buffers,
                          int num_args, int num_scalars)
{
    double t0 = wallSeconds();
    KernelFunction fn =
        compose(name, parts, buffer_maps, scalar_maps,
                std::move(fused_buffers), num_args, num_scalars);
    return finish(std::move(fn), t0);
}

} // namespace kir
} // namespace diffuse
