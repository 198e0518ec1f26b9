// chaos: standalone front end for the randomized chaos/soak harness
// (dynamic/chaos.h), the same command as `densest_cli chaos`. `chaos
// --smoke` is the fixed-seed CI gate. Exits nonzero the moment any
// schedule's surviving engine is not bit-identical to its fault-free
// reference — the error names the seed that replays it.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli/commands.h"

int main(int argc, char** argv) {
  using namespace densest;
  std::vector<std::string> tokens(argv + 1, argv + argc);
  for (const std::string& t : tokens) {
    if (t == "help" || t == "--help" || t == "-h") {
      std::fputs(CommandUsage("chaos").c_str(), stdout);
      return 0;
    }
  }
  Status status = RunCliCommand("chaos", tokens, std::cout);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return status.code() == Status::Code::kInvalidArgument ? 2 : 1;
  }
  return 0;
}
