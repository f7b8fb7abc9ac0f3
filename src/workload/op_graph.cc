#include "workload/op_graph.hh"

#include <utility>

namespace skipsim::workload
{

double
KernelLaunch::totalFlops() const
{
    double total = 0.0;
    for (const auto &w : work)
        total += w.flops;
    return total;
}

double
KernelLaunch::totalBytes() const
{
    double total = 0.0;
    for (const auto &w : work)
        total += w.bytes;
    return total;
}

namespace
{

void
visitOps(const OpNode &node, const std::function<void(const OpNode &)> &fn)
{
    fn(node);
    for (const auto &child : node.children)
        visitOps(child, fn);
}

void
visitLaunches(const OpNode &node,
              const std::function<void(const KernelLaunch &)> &fn)
{
    for (const auto &child : node.children)
        visitLaunches(child, fn);
    for (const auto &launch : node.launches)
        fn(launch);
}

} // namespace

std::size_t
OperatorGraph::numOps() const
{
    std::size_t n = 0;
    forEachOp([&](const OpNode &) { ++n; });
    return n;
}

std::size_t
OperatorGraph::numKernelLaunches() const
{
    std::size_t n = 0;
    forEachLaunch([&](const KernelLaunch &launch) {
        if (!launch.isMemcpy)
            ++n;
    });
    return n;
}

std::size_t
OperatorGraph::numMemcpys() const
{
    std::size_t n = 0;
    forEachLaunch([&](const KernelLaunch &launch) {
        if (launch.isMemcpy)
            ++n;
    });
    return n;
}

double
OperatorGraph::totalFlops() const
{
    double total = 0.0;
    forEachLaunch([&](const KernelLaunch &launch) {
        if (!launch.isMemcpy)
            total += launch.totalFlops();
    });
    return total;
}

double
OperatorGraph::totalBytes() const
{
    double total = 0.0;
    forEachLaunch([&](const KernelLaunch &launch) {
        if (!launch.isMemcpy)
            total += launch.totalBytes();
    });
    return total;
}

double
OperatorGraph::totalCpuNs() const
{
    double total = 0.0;
    forEachOp([&](const OpNode &node) { total += node.cpuNs; });
    return total;
}

std::vector<std::string>
OperatorGraph::kernelSequence() const
{
    std::vector<std::string> out;
    forEachLaunch([&](const KernelLaunch &launch) {
        if (!launch.isMemcpy)
            out.push_back(launch.kernelName);
    });
    return out;
}

void
OperatorGraph::forEachOp(const std::function<void(const OpNode &)> &fn) const
{
    for (const auto &root : roots)
        visitOps(root, fn);
}

void
OperatorGraph::forEachLaunch(
    const std::function<void(const KernelLaunch &)> &fn) const
{
    for (const auto &root : roots)
        visitLaunches(root, fn);
}

OpNode
makeKernelOp(std::string op_name, double cpu_ns, std::string kernel_name,
             hw::KernelWork work)
{
    OpNode node;
    node.name = std::move(op_name);
    node.cpuNs = cpu_ns;
    KernelLaunch launch;
    launch.kernelName = std::move(kernel_name);
    launch.work.push_back(work);
    node.launches.push_back(std::move(launch));
    return node;
}

OpNode
makeParentOp(std::string op_name, double cpu_ns,
             std::vector<OpNode> children)
{
    OpNode node;
    node.name = std::move(op_name);
    node.cpuNs = cpu_ns;
    node.children = std::move(children);
    return node;
}

} // namespace skipsim::workload
