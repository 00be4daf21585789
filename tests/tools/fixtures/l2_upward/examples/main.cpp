// papc_lint fixture (tree mode): the entry point that keeps both headers
// reachable (L3), so the tree trips only the rule under test.
#include "support/bad_helper.hpp"

int main() { return papc::support::helper() == 42 ? 0 : 1; }
