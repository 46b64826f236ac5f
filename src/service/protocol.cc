#include "src/service/protocol.h"

namespace wayfinder {

bool KnownServiceCommand(const std::string& command) {
  return command == "submit" || command == "status" || command == "watch" ||
         command == "result" || command == "pause" || command == "resume" ||
         command == "stop" || command == "ping" || command == "metrics" ||
         command == "trace";
}

bool CommandNeedsId(const std::string& command) {
  return command == "result" || command == "pause" || command == "resume" ||
         command == "watch" || command == "trace";
}

bool IdempotentServiceCommand(const std::string& command) {
  return command == "status" || command == "result" || command == "watch" ||
         command == "ping" || command == "metrics" || command == "trace";
}

bool ValidateRequest(const ServiceRequest& request, std::string* error) {
  if (request.command.empty()) {
    *error = "request has no command";
    return false;
  }
  if (!KnownServiceCommand(request.command)) {
    *error = "unknown command: " + request.command;
    return false;
  }
  if (CommandNeedsId(request.command) && request.id.empty()) {
    *error = request.command + " requires an id";
    return false;
  }
  return true;
}

}  // namespace wayfinder
