/**
 * @file
 * GAN topology construction.
 */

#include "gan/models.hh"

#include <sstream>

#include "util/logging.hh"

namespace ganacc {
namespace gan {

using nn::Activation;
using nn::Conv2dGeom;
using nn::ConvKind;
using tensor::Shape4;

int
LayerSpec::outH() const
{
    if (kind == ConvKind::Strided)
        return tensor::convOutDim(inH, geom.kernel, geom.stride, geom.pad);
    return tensor::tconvOutDim(inH, geom.kernel, geom.stride, geom.pad,
                               geom.outPad);
}

int
LayerSpec::outW() const
{
    if (kind == ConvKind::Strided)
        return tensor::convOutDim(inW, geom.kernel, geom.stride, geom.pad);
    return tensor::tconvOutDim(inW, geom.kernel, geom.stride, geom.pad,
                               geom.outPad);
}

std::size_t
LayerSpec::macs() const
{
    // Dense MAC count: every output neuron accumulates
    // inChannels * k * k products.
    return std::size_t(outChannels) * outH() * outW() * inChannels *
           geom.kernel * geom.kernel;
}

std::size_t
LayerSpec::numWeights() const
{
    return std::size_t(outChannels) * inChannels * geom.kernel *
           geom.kernel;
}

std::size_t
LayerSpec::outputElems() const
{
    return std::size_t(outChannels) * outH() * outW();
}

std::string
LayerSpec::describe() const
{
    std::ostringstream os;
    os << (kind == ConvKind::Strided ? "S-CONV" : "T-CONV") << " "
       << inChannels << "x" << inH << "x" << inW << " -> " << outChannels
       << "x" << outH() << "x" << outW() << " (k" << geom.kernel << " s"
       << geom.stride << " p" << geom.pad;
    if (geom.outPad)
        os << " op" << geom.outPad;
    os << ")";
    return os.str();
}

Shape4
GanModel::imageShape() const
{
    GANACC_ASSERT(!disc.empty(), "model has no discriminator layers");
    return Shape4(1, disc.front().inChannels, disc.front().inH,
                  disc.front().inW);
}

std::size_t
GanModel::discIntermediateElems() const
{
    std::size_t total = 0;
    for (const auto &l : disc)
        total += l.outputElems();
    return total;
}

std::size_t
GanModel::genIntermediateElems() const
{
    std::size_t total = 0;
    for (const auto &l : gen)
        total += l.outputElems();
    return total;
}

namespace {

/**
 * Derive the generator as the inverse of the discriminator stack:
 * reverse the layers, swap channel/spatial roles, and pick the T-CONV
 * output padding that makes each inverse layer land exactly on the
 * forward layer's input size.
 */
std::vector<LayerSpec>
invertDiscriminator(const std::vector<LayerSpec> &disc, int latent_dim)
{
    std::vector<LayerSpec> gen;
    for (auto it = disc.rbegin(); it != disc.rend(); ++it) {
        const LayerSpec &d = *it;
        LayerSpec g;
        g.kind = ConvKind::Transposed;
        g.inChannels = d.outChannels;
        g.outChannels = d.inChannels;
        g.inH = d.outH();
        g.inW = d.outW();
        g.geom = d.geom;
        // Solve for output padding so the T-CONV exactly inverts the
        // S-CONV's spatial mapping.
        int natural = (g.inH - 1) * g.geom.stride - 2 * g.geom.pad +
                      g.geom.kernel;
        g.geom.outPad = d.inH - natural;
        GANACC_ASSERT(g.geom.outPad >= 0 && g.geom.outPad < g.geom.stride,
                      "discriminator layer not invertible: ",
                      d.describe());
        // Hidden layers use ReLU; the image-producing layer uses Tanh.
        g.act = (std::next(it) == disc.rend()) ? Activation::Tanh
                                               : Activation::ReLU;
        gen.push_back(g);
    }
    // The first generator layer consumes the latent vector rather than
    // the discriminator head's scalar.
    GANACC_ASSERT(!gen.empty(), "empty generator");
    gen.front().inChannels = latent_dim;
    return gen;
}

LayerSpec
sconvLayer(int in_c, int out_c, int in_h, int in_w, int k, int s, int p,
           Activation act)
{
    LayerSpec l;
    l.kind = ConvKind::Strided;
    l.act = act;
    l.inChannels = in_c;
    l.outChannels = out_c;
    l.inH = in_h;
    l.inW = in_w;
    l.geom = Conv2dGeom{k, s, p, 0};
    return l;
}

} // namespace

namespace {

void
checkChain(const std::vector<LayerSpec> &layers, const std::string &name,
           const char *which)
{
    for (std::size_t i = 1; i < layers.size(); ++i) {
        GANACC_ASSERT(layers[i].inChannels ==
                              layers[i - 1].outChannels &&
                          layers[i].inH == layers[i - 1].outH() &&
                          layers[i].inW == layers[i - 1].outW(),
                      which, " layers of ", name,
                      " do not chain at layer ", i);
    }
}

} // namespace

GanModel
makeModel(std::string name, std::vector<LayerSpec> disc, int latent_dim)
{
    GanModel m;
    m.name = std::move(name);
    m.latentDim = latent_dim;
    m.gen = invertDiscriminator(disc, latent_dim);
    m.disc = std::move(disc);
    checkChain(m.disc, m.name, "discriminator");
    return m;
}

GanModel
makeModelWithGenerator(std::string name, std::vector<LayerSpec> disc,
                       std::vector<LayerSpec> gen)
{
    GanModel m;
    m.name = std::move(name);
    m.disc = std::move(disc);
    m.gen = std::move(gen);
    GANACC_ASSERT(!m.disc.empty() && !m.gen.empty(),
                  "model needs both networks");
    m.latentDim = m.gen.front().inChannels;
    checkChain(m.disc, m.name, "discriminator");
    checkChain(m.gen, m.name, "generator");
    GANACC_ASSERT(m.gen.back().outChannels ==
                          m.disc.front().inChannels &&
                      m.gen.back().outH() == m.disc.front().inH &&
                      m.gen.back().outW() == m.disc.front().inW,
                  "generator of ", m.name,
                  " does not produce the discriminator's input");
    return m;
}

GanModel
makeDcgan()
{
    std::vector<LayerSpec> disc;
    disc.push_back(
        sconvLayer(3, 64, 64, 64, 5, 2, 2, Activation::LeakyReLU));
    disc.push_back(
        sconvLayer(64, 128, 32, 32, 5, 2, 2, Activation::LeakyReLU));
    disc.push_back(
        sconvLayer(128, 256, 16, 16, 5, 2, 2, Activation::LeakyReLU));
    disc.push_back(
        sconvLayer(256, 512, 8, 8, 5, 2, 2, Activation::LeakyReLU));
    // Scalar critic head: 4x4 valid conv to 1x1x1.
    disc.push_back(sconvLayer(512, 1, 4, 4, 4, 1, 0, Activation::None));
    return makeModel("DCGAN", std::move(disc), 100);
}

GanModel
makeMnistGan()
{
    std::vector<LayerSpec> disc;
    disc.push_back(
        sconvLayer(1, 64, 28, 28, 5, 2, 2, Activation::LeakyReLU));
    disc.push_back(
        sconvLayer(64, 128, 14, 14, 5, 2, 2, Activation::LeakyReLU));
    disc.push_back(sconvLayer(128, 1, 7, 7, 7, 1, 0, Activation::None));
    return makeModel("MNIST-GAN", std::move(disc), 100);
}

GanModel
makeCgan()
{
    std::vector<LayerSpec> disc;
    disc.push_back(
        sconvLayer(3, 64, 64, 64, 4, 2, 1, Activation::LeakyReLU));
    disc.push_back(
        sconvLayer(64, 128, 32, 32, 4, 2, 1, Activation::LeakyReLU));
    disc.push_back(
        sconvLayer(128, 256, 16, 16, 4, 2, 1, Activation::LeakyReLU));
    disc.push_back(
        sconvLayer(256, 512, 8, 8, 4, 2, 1, Activation::LeakyReLU));
    disc.push_back(sconvLayer(512, 1, 4, 4, 4, 1, 0, Activation::None));
    return makeModel("cGAN", std::move(disc), 100);
}

GanModel
makeContextEncoder()
{
    // Discriminator: the Table IV cGAN critic.
    GanModel cgan = makeCgan();

    // Generator: encoder (S-CONV, LeakyReLU) to a 512x4x4 bottleneck,
    // decoder (T-CONV, ReLU / Tanh on the image) back to 3x64x64.
    std::vector<LayerSpec> gen;
    auto enc = [&](int in_c, int out_c, int in_hw) {
        LayerSpec l;
        l.kind = ConvKind::Strided;
        l.act = Activation::LeakyReLU;
        l.inChannels = in_c;
        l.outChannels = out_c;
        l.inH = l.inW = in_hw;
        l.geom = Conv2dGeom{4, 2, 1, 0};
        gen.push_back(l);
    };
    enc(3, 64, 64);
    enc(64, 128, 32);
    enc(128, 256, 16);
    enc(256, 512, 8);
    auto dec = [&](int in_c, int out_c, int in_hw, Activation act) {
        LayerSpec l;
        l.kind = ConvKind::Transposed;
        l.act = act;
        l.inChannels = in_c;
        l.outChannels = out_c;
        l.inH = l.inW = in_hw;
        l.geom = Conv2dGeom{4, 2, 1, 0};
        gen.push_back(l);
    };
    dec(512, 256, 4, Activation::ReLU);
    dec(256, 128, 8, Activation::ReLU);
    dec(128, 64, 16, Activation::ReLU);
    dec(64, 3, 32, Activation::Tanh);
    return makeModelWithGenerator("ContextEncoder",
                                  std::move(cgan.disc),
                                  std::move(gen));
}

std::vector<GanModel>
allModels()
{
    return {makeMnistGan(), makeDcgan(), makeCgan()};
}

GanModel
modelByName(const std::string &name)
{
    if (name == "dcgan")
        return makeDcgan();
    if (name == "mnist-gan")
        return makeMnistGan();
    if (name == "cgan")
        return makeCgan();
    if (name == "context-encoder")
        return makeContextEncoder();
    util::fatal("unknown model \"", name,
                "\" (dcgan, mnist-gan, cgan, context-encoder)");
}

std::unique_ptr<nn::ConvLayerBase>
instantiateLayer(const LayerSpec &spec)
{
    std::unique_ptr<nn::ConvLayerBase> layer;
    if (spec.kind == ConvKind::Strided)
        layer = std::make_unique<nn::ConvLayer>(
            spec.inChannels, spec.outChannels, spec.geom, spec.act);
    else
        layer = std::make_unique<nn::TransposedConvLayer>(
            spec.inChannels, spec.outChannels, spec.geom, spec.act);
    if (spec.batchNorm)
        layer->enableBatchNorm();
    return layer;
}

} // namespace gan
} // namespace ganacc
