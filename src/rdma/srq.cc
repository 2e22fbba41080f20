#include "rdma/srq.h"

namespace slash::rdma {

std::string_view ConnectionModeName(ConnectionMode mode) {
  switch (mode) {
    case ConnectionMode::kFullMesh:
      return "full_mesh";
    case ConnectionMode::kSrq:
      return "srq";
    case ConnectionMode::kShared:
      return "shared";
  }
  return "unknown";
}

bool ParseConnectionMode(std::string_view name, ConnectionMode* out) {
  if (name == "full_mesh") {
    *out = ConnectionMode::kFullMesh;
  } else if (name == "srq") {
    *out = ConnectionMode::kSrq;
  } else if (name == "shared") {
    *out = ConnectionMode::kShared;
  } else {
    return false;
  }
  return true;
}

}  // namespace slash::rdma
