// papc-lint: allow(L3)
#pragma once

// papc_lint fixture (tree mode): an unreached header whose allow(L3) has
// no justification — the L3 is honored, the bare allow() trips SUPP.
namespace papc::support {
inline int bare() { return 4; }
}  // namespace papc::support
