// papc_lint fixture (tree mode): nothing includes this header — trips L3.
#pragma once

namespace papc::support {
int orphan();
}  // namespace papc::support
