#include "core/compiler.h"

#include "core/context.h"
#include "core/executor.h"

namespace square {

CompileResult
compile(const Program &prog, const Machine &machine,
        const SquareConfig &cfg, const CompileOptions &options)
{
    CompileContext ctx(prog, machine, cfg, options);
    Executor exec(prog, ctx);
    return exec.run();
}

} // namespace square
