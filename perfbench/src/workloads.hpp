// Entry points of the in-process runner, one per mode of `perfbench_inproc`.
#pragma once

#include "common.hpp"

namespace perfbench {

int run_paper_study(const Args& args);
int run_early_warning(const Args& args);
/// serve_online's in-process half: writes the model artifact and the
/// request pool for the HTTP run, and in a traced run replays the pool
/// through each layer's public function.
int run_serve_prepare(const Args& args);

}  // namespace perfbench
