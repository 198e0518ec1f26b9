// densest_cli: command-line front end for the densest library.
// See CliUsage() (or run with no arguments) for the command reference.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli/commands.h"

int main(int argc, char** argv) {
  using namespace densest;
  if (argc < 2) {
    std::fputs(CliUsage().c_str(), stdout);
    return 2;
  }
  std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    std::fputs(CliUsage().c_str(), stdout);
    return 0;
  }
  Status status = RunCliCommand(
      command, std::vector<std::string>(argv + 2, argv + argc), std::cout);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
