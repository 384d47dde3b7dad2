/**
 * @file
 * Tests for the computation-graph IR: builder wiring, topological
 * sort, backward-schedule generation, and the model zoo builders.
 */
#include "graph/graph.h"

#include <gtest/gtest.h>

#include "graph/backward.h"
#include "models/models.h"

namespace scnn {
namespace {

Graph
tinyCnn(int64_t batch = 2, int64_t image = 8)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{batch, 3, image, image});
    x = b.conv2d(x, 8, Window2d::square(3, 1, 1), true, "conv1");
    x = b.relu(x);
    b.markCutPoint(x);
    x = b.maxPool(x, Window2d::square(2, 2, 0));
    x = b.flatten(x);
    x = b.linear(x, 10, true, "fc");
    return b.build();
}

TEST(GraphBuilder, ShapesAreInferred)
{
    Graph g = tinyCnn();
    EXPECT_EQ(g.tensor(g.outputTensor()).shape, Shape({2, 10}));
    // conv output keeps spatial extent with p=1, k=3.
    bool found = false;
    for (const auto &n : g.nodes()) {
        if (n.kind == OpKind::Conv2d) {
            EXPECT_EQ(g.tensor(n.output).shape, Shape({2, 8, 8, 8}));
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(GraphBuilder, ProducerConsumerLinks)
{
    Graph g = tinyCnn();
    g.validate();
    for (const auto &t : g.tensors()) {
        if (t.id == g.outputTensor())
            EXPECT_TRUE(t.consumers.empty());
        else
            EXPECT_FALSE(t.consumers.empty())
                << t.name << " is dead in the graph";
    }
}

TEST(GraphBuilder, TopoOrderRespectsDependencies)
{
    Graph g = buildResNet18({.batch = 1, .image = 32, .width = 0.25});
    const auto topo = g.topoOrder();
    std::vector<int> position(g.nodes().size());
    for (size_t i = 0; i < topo.size(); ++i)
        position[static_cast<size_t>(topo[i])] = static_cast<int>(i);
    for (const auto &n : g.nodes())
        for (TensorId t : n.inputs)
            EXPECT_LT(position[static_cast<size_t>(
                          g.tensor(t).producer)],
                      position[static_cast<size_t>(n.id)]);
}

TEST(GraphBuilder, SharedParamsAreNotDuplicated)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{1, 3, 8, 8});
    TensorId a = b.conv2d(x, 4, Window2d::square(3, 1, 1), true, "c1");
    // Second conv sharing c1's weights.
    const Graph *peek = nullptr;
    (void)peek;
    TensorId y = b.conv2d(x, 4, Window2d::square(3, 1, 1), true, "c2",
                          {0, 1});
    b.add({a, y});
    Graph g = b.build();
    EXPECT_EQ(g.params().size(), 2u);
}

TEST(GraphBuilder, RejectsMismatchedSharedParams)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{1, 3, 8, 8});
    b.conv2d(x, 4, Window2d::square(3, 1, 1), true, "c1");
    EXPECT_THROW(b.conv2d(x, 8, Window2d::square(3, 1, 1), true, "c2",
                          {0, 1}),
                 std::exception);
}

TEST(Backward, ScheduleIsReverseForwardOrder)
{
    Graph g = tinyCnn();
    const auto topo = g.topoOrder();
    const auto schedule = buildBackwardSchedule(g, topo);
    // Input dropped, order reversed.
    ASSERT_EQ(schedule.size(), topo.size() - 1);
    for (size_t i = 0; i + 1 < schedule.size(); ++i) {
        const auto pos = [&](NodeId id) {
            return std::find(topo.begin(), topo.end(), id) -
                   topo.begin();
        };
        EXPECT_GT(pos(schedule[i].fwd_node),
                  pos(schedule[i + 1].fwd_node));
    }
}

TEST(Backward, ReluNeedsOnlyItsOutput)
{
    Graph g = tinyCnn();
    for (const auto &n : g.nodes()) {
        if (n.kind != OpKind::ReLU)
            continue;
        const auto needed = neededForwardTensors(g, n);
        ASSERT_EQ(needed.size(), 1u);
        EXPECT_EQ(needed[0], n.output);
    }
}

TEST(Backward, ConvNeedsItsInput)
{
    Graph g = tinyCnn();
    for (const auto &n : g.nodes()) {
        if (n.kind != OpKind::Conv2d)
            continue;
        const auto needed = neededForwardTensors(g, n);
        ASSERT_EQ(needed.size(), 1u);
        EXPECT_EQ(needed[0], n.inputs[0]);
    }
}

TEST(Backward, NeededSetCoversConvInputsAndPoolTensors)
{
    Graph g = buildVgg19({.batch = 1, .image = 32, .width = 0.125});
    const auto needed = tensorsNeededInBackward(g, g.topoOrder());
    EXPECT_FALSE(needed.empty());
    for (const auto &n : g.nodes()) {
        if (n.kind == OpKind::Conv2d) {
            EXPECT_TRUE(needed.count(n.inputs[0]))
                << "conv input of " << n.name << " not in needed set";
        }
    }
}

TEST(Models, Vgg19CifarStructure)
{
    Graph g = buildVgg19({.batch = 2, .image = 32, .width = 1.0});
    EXPECT_EQ(g.convCount(), 16);
    EXPECT_EQ(g.tensor(g.outputTensor()).shape, Shape({2, 10}));
    EXPECT_GE(g.cutPoints().size(), 16u);
    // Five pools: final spatial extent 1.
    int pools = 0;
    for (const auto &n : g.nodes())
        if (n.kind == OpKind::MaxPool2d)
            ++pools;
    EXPECT_EQ(pools, 5);
}

TEST(Models, Vgg19ImageNetHasThreeFcLayers)
{
    Graph g = buildVgg19({.batch = 1,
                          .image = 224,
                          .classes = 1000,
                          .width = 1.0,
                          .batch_norm = false});
    int linears = 0;
    for (const auto &n : g.nodes())
        if (n.kind == OpKind::Linear)
            ++linears;
    EXPECT_EQ(linears, 3);
    EXPECT_EQ(g.tensor(g.outputTensor()).shape, Shape({1, 1000}));
}

TEST(Models, ResNet18Structure)
{
    Graph g = buildResNet18({.batch = 2, .image = 32, .width = 1.0});
    // 1 stem + 16 block convs + 3 downsample projections.
    EXPECT_EQ(g.convCount(), 20);
    EXPECT_EQ(g.tensor(g.outputTensor()).shape, Shape({2, 10}));
    // Cut points at block boundaries: stem + 8 blocks.
    EXPECT_EQ(g.cutPoints().size(), 9u);
    g.validate();
}

TEST(Models, ResNet50Structure)
{
    Graph g = buildResNet50({.batch = 1,
                             .image = 64,
                             .classes = 100,
                             .width = 0.25});
    // 1 stem + 3*16 bottleneck convs + 4 projections.
    EXPECT_EQ(g.convCount(), 53);
    EXPECT_EQ(g.tensor(g.outputTensor()).shape, Shape({1, 100}));
    g.validate();
}

TEST(Models, AlexNetStructure)
{
    Graph g = buildAlexNet({.batch = 1,
                            .image = 224,
                            .classes = 1000,
                            .width = 1.0,
                            .batch_norm = false});
    EXPECT_EQ(g.convCount(), 5);
    EXPECT_EQ(g.tensor(g.outputTensor()).shape, Shape({1, 1000}));
    g.validate();
}

TEST(Models, WidthMultiplierScalesParameters)
{
    const auto full =
        buildVgg19({.batch = 1, .image = 32, .width = 1.0});
    const auto half =
        buildVgg19({.batch = 1, .image = 32, .width = 0.5});
    EXPECT_LT(half.parameterCount(), full.parameterCount() / 3);
    EXPECT_GT(half.parameterCount(), 0);
}

TEST(Models, ParameterCountVgg19ImageNetIsPlausible)
{
    // Canonical VGG-19 has ~143.7 M parameters (with classifier).
    Graph g = buildVgg19({.batch = 1,
                          .image = 224,
                          .classes = 1000,
                          .width = 1.0,
                          .batch_norm = false});
    const double m = static_cast<double>(g.parameterCount()) / 1e6;
    EXPECT_NEAR(m, 143.7, 1.0);
}

TEST(Models, ParameterCountResNet18ImageNetIsPlausible)
{
    // Canonical ResNet-18 has ~11.7 M parameters.
    Graph g = buildResNet18({.batch = 1,
                             .image = 224,
                             .classes = 1000,
                             .width = 1.0});
    const double m = static_cast<double>(g.parameterCount()) / 1e6;
    EXPECT_NEAR(m, 11.7, 0.5);
}

TEST(Models, UnknownNameIsFatal)
{
    EXPECT_THROW(buildModel("lenet", {}), std::exception);
}

} // namespace
} // namespace scnn
