// papc_lint fixture (tree mode): the tree's only root. It reaches
// used.hpp, and through it used.cpp; nothing reaches the other headers.
#include "support/used.hpp"

int main() { return papc::support::used() == 1 ? 0 : 1; }
