#include "core/messages.hpp"

#include "sim/payload.hpp"

namespace dust::core {

// Every protocol message rides a transport inline, with no allocation.
static_assert(sim::Payload::stores_inline<Message>);

std::string manager_endpoint() { return "dust-manager"; }

std::string client_endpoint(graph::NodeId node) {
  return "dust-client-" + std::to_string(node);
}

sim::Priority message_priority(const Message& message) {
  return std::holds_alternative<TelemetryDataMsg>(message)
             ? sim::Priority::kLow
             : sim::Priority::kNormal;
}

const char* message_kind(const Message& message) {
  return std::visit(
      [](const auto& msg) -> const char* {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, OffloadCapableMsg>) {
          return "offload_capable";
        } else if constexpr (std::is_same_v<T, AckMsg>) {
          return "ack";
        } else if constexpr (std::is_same_v<T, StatMsg>) {
          return "stat";
        } else if constexpr (std::is_same_v<T, OffloadRequestMsg>) {
          return "offload_request";
        } else if constexpr (std::is_same_v<T, OffloadAckMsg>) {
          return "offload_ack";
        } else if constexpr (std::is_same_v<T, AgentTransferMsg>) {
          return "agent_transfer";
        } else if constexpr (std::is_same_v<T, TelemetryDataMsg>) {
          return "telemetry_data";
        } else if constexpr (std::is_same_v<T, KeepaliveMsg>) {
          return "keepalive";
        } else if constexpr (std::is_same_v<T, RepMsg>) {
          return "rep";
        } else {
          static_assert(std::is_same_v<T, ReleaseMsg>);
          return "release";
        }
      },
      message);
}

}  // namespace dust::core
