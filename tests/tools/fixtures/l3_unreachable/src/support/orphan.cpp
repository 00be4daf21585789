// papc_lint fixture (tree mode): the twin of an unreached header is
// unreached too, even though it includes that header — trips L3.
#include "support/orphan.hpp"

namespace papc::support {
int orphan() { return 2; }
}  // namespace papc::support
