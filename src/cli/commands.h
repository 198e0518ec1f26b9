// Copyright 2026 The densest Authors.
// The densest_cli command layer. Each command takes checked Args and
// writes human-readable output to a stream, so the whole surface is
// testable without spawning processes.
//
// Every command's positionals and flags (names, types, defaults, minimums,
// help) are declared once, in the table in cli/command_table.cc; usage
// text, `chaos --help` and the pre-run flag checks all come from it.

#ifndef DENSEST_CLI_COMMANDS_H_
#define DENSEST_CLI_COMMANDS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cli/args.h"
#include "common/status.h"

namespace densest {

/// Looks `command` up in the table, checks `tokens` (argv after the
/// command name) against its flags and the global flags, and only then
/// runs it. Known commands: stats, undirected, directed, mapreduce,
/// dynamic, serve, chaos, exact, enumerate, generate.
Status RunCliCommand(const std::string& command,
                     const std::vector<std::string>& tokens,
                     std::ostream& out);

/// The command table, and the flags every command accepts.
const std::vector<CommandSpec>& CliCommands();
const std::vector<FlagSpec>& CliGlobalFlags();

/// Usage text for the tool, and for one command (plus the global flags).
std::string CliUsage();
std::string CommandUsage(std::string_view command);

/// The command bodies, one per table entry. Each reads its already
/// checked flags from `args` and writes a report to `out`; the table's
/// synopsis line says what each does.
Status CmdStats(const Args& args, std::ostream& out);
Status CmdUndirected(const Args& args, std::ostream& out);
Status CmdDirected(const Args& args, std::ostream& out);
Status CmdMapReduce(const Args& args, std::ostream& out);
Status CmdDynamic(const Args& args, std::ostream& out);
Status CmdServe(const Args& args, std::ostream& out);
Status CmdChaos(const Args& args, std::ostream& out);
Status CmdExact(const Args& args, std::ostream& out);
Status CmdEnumerate(const Args& args, std::ostream& out);
Status CmdGenerate(const Args& args, std::ostream& out);

}  // namespace densest

#endif  // DENSEST_CLI_COMMANDS_H_
