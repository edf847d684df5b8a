// RouterClient: a client session against a causalec_router. The router
// speaks the same client protocol as a daemon, so this is net::NetClient;
// its session frontier is what keeps the guarantees through the router's
// edge cache and across router restarts (net/net_client.h).
#pragma once

#include "net/net_client.h"

namespace causalec::frontdoor {

using RouterClient = net::NetClient;

}  // namespace causalec::frontdoor
