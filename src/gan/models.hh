/**
 * @file
 * GAN network topologies evaluated by the paper: DCGAN (Fig. 1),
 * MNIST-GAN and cGAN (Table IV). Each model is described as its
 * discriminator's S-CONV stack; the generator is derived as the
 * structural inverse (T-CONV stack), exactly as the paper states
 * ("Generator has an inverse architecture of Discriminator").
 */

#ifndef GANACC_GAN_MODELS_HH
#define GANACC_GAN_MODELS_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv_ref.hh"
#include "nn/layers.hh"
#include "tensor/shape.hh"

namespace ganacc {
namespace gan {

/** Static description of one convolutional layer in a GAN network. */
struct LayerSpec
{
    nn::ConvKind kind = nn::ConvKind::Strided;
    nn::Activation act = nn::Activation::LeakyReLU;
    /// Attach batch normalization between conv and activation (the
    /// DCGAN recipe; off for the paper's evaluation networks).
    bool batchNorm = false;
    int inChannels = 1;
    int outChannels = 1;
    int inH = 1;
    int inW = 1;
    nn::Conv2dGeom geom;

    /** Spatial output rows. */
    int outH() const;
    /** Spatial output columns. */
    int outW() const;

    /** Dense multiply-accumulate count of the forward pass. */
    std::size_t macs() const;

    /** Number of weights (outChannels*inChannels*k*k). */
    std::size_t numWeights() const;

    /** Output feature-map elements (outChannels*outH*outW). */
    std::size_t outputElems() const;

    std::string describe() const;
};

/** A full GAN: discriminator stack plus derived generator stack. */
struct GanModel
{
    std::string name;
    int latentDim = 100;          ///< generator input channels (z)
    std::vector<LayerSpec> disc;  ///< S-CONV layers, image -> scalar
    std::vector<LayerSpec> gen;   ///< T-CONV layers, z -> image

    /** Image shape consumed by the discriminator. */
    tensor::Shape4 imageShape() const;

    /** Per-sample intermediate-output elements of the discriminator
     *  (the d^l buffered for weight updating, Section III-A). */
    std::size_t discIntermediateElems() const;

    /** Same for the generator stack. */
    std::size_t genIntermediateElems() const;
};

/**
 * Build a model from a discriminator description.
 *
 * @param name       model name.
 * @param disc       discriminator S-CONV layers (including the scalar
 *                   head).
 * @param latent_dim generator input (noise) channels; the generator is
 *                   the layer-by-layer inverse of the discriminator
 *                   with its first layer fed latent_dim channels.
 */
GanModel makeModel(std::string name, std::vector<LayerSpec> disc,
                   int latent_dim);

/** DCGAN of Fig. 1: 3x64x64 images, 5x5 kernels, stride 2, 4 layers. */
GanModel makeDcgan();

/** MNIST-GAN of Table IV: 1x28x28, 5x5 kernels, 2 conv layers. */
GanModel makeMnistGan();

/** cGAN of Table IV: 3x64x64, 4x4 kernels, 4 conv layers. */
GanModel makeCgan();

/**
 * Build a model with an explicit generator stack (for encoder-decoder
 * generators that are not the discriminator's inverse). Chains are
 * validated; the generator's output must match the discriminator's
 * input.
 */
GanModel makeModelWithGenerator(std::string name,
                                std::vector<LayerSpec> disc,
                                std::vector<LayerSpec> gen);

/**
 * Context-Encoder-style conditional GAN (Pathak et al., the system
 * the paper's cGAN evaluation represents): the generator is an
 * encoder-decoder — an S-CONV stack down to a 512x4x4 bottleneck,
 * then a T-CONV stack back to the image — conditioned on the masked
 * input image rather than a noise vector. Exercises the mixed
 * strided/transposed generator paths of the phase mapping.
 */
GanModel makeContextEncoder();

/** All three evaluation networks, in paper order. */
std::vector<GanModel> allModels();

/**
 * The bundled network a tool or request names: "dcgan", "mnist-gan",
 * "cgan" or "context-encoder" (exact spelling). Fails with
 * `unknown model "x" (dcgan, mnist-gan, cgan, context-encoder)`.
 */
GanModel modelByName(const std::string &name);

/** Instantiate a trainable layer from its spec (weights unset). */
std::unique_ptr<nn::ConvLayerBase> instantiateLayer(const LayerSpec &spec);

} // namespace gan
} // namespace ganacc

#endif // GANACC_GAN_MODELS_HH
