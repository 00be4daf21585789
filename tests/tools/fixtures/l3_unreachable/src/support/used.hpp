// papc_lint fixture (tree mode): reached from examples/main.cpp — clean.
#pragma once

namespace papc::support {
int used();
}  // namespace papc::support
