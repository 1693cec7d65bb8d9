#include "msg_layer.hh"

#include "sim/log.hh"

namespace swsm
{

MsgLayer::MsgLayer(Network &net) : net(net)
{
    sinks.assign(net.numNodes(), nullptr);
}

void
MsgLayer::attachSink(NodeId n, HandlerSink *sink)
{
    sinks.at(n) = sink;
}

void
MsgLayer::registerMetrics(MetricsRegistry &registry) const
{
    registry.addCounter("comm.requests",
                        [this] { return requests.value(); });
    registry.addCounter("comm.data", [this] { return data.value(); });
}

void
MsgLayer::sendRequest(NodeId src, NodeId dst, std::uint32_t payload_bytes,
                      Cycles ready, HandlerFn fn)
{
    if (!sinks.at(dst))
        SWSM_PANIC("request sent to node %d with no handler sink", dst);
    requests.inc();
    const Cycles handling = net.params().handlingCost;
    const Cycles interrupt = net.params().interruptCost;
    HandlerSink *sink = sinks[dst];
    HandlerFn dispatch = std::move(fn);
    if (interrupt > 0) {
        // Interrupt-driven handling: the dispatch itself burns
        // processor time before the handler body runs.
        dispatch = [interrupt, fn = std::move(dispatch)](NodeEnv &env) {
            env.charge(interrupt, TimeBucket::ProtoHandler);
            fn(env);
        };
    }
    net.send(src, dst, msgHeaderBytes + payload_bytes, ready,
             [sink, handling,
              fn = std::move(dispatch)](Cycles delivered) mutable {
                 sink->postHandler(delivered + handling, std::move(fn));
             });
}

void
MsgLayer::sendData(NodeId src, NodeId dst, std::uint32_t payload_bytes,
                   Cycles ready, std::function<void(Cycles)> fn)
{
    if (!sinks.at(dst))
        SWSM_PANIC("data sent to node %d with no handler sink", dst);
    data.inc();
    HandlerSink *sink = sinks[dst];
    net.send(src, dst, msgHeaderBytes + payload_bytes, ready,
             [sink, fn = std::move(fn)](Cycles delivered) mutable {
                 sink->postData(delivered, std::move(fn));
             });
}

} // namespace swsm
