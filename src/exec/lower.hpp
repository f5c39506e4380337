// Lowering pass: compiled-program IR -> flat pre-resolved LoweredProgram.
//
// Runs once at FusedExecutor construction and is total: every compiled
// loop, term, reset and top-level action gets its lowered counterpart, with
// loop ids preserved (lowered loop i is compiled loop i).
#pragma once

#include "exec/compiled_program.hpp"
#include "exec/lowered_program.hpp"

namespace spttn {

lowered::LoweredProgram lower_program(const cprog::CompiledView& prog);

}  // namespace spttn
