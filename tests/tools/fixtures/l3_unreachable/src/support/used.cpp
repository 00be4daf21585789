// papc_lint fixture (tree mode): no root includes this file, but it is
// reached through its header — clean.
#include "support/used.hpp"

namespace papc::support {
int used() { return 1; }
}  // namespace papc::support
