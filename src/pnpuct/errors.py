"""Exception types raised by the pnpuct library."""


class PnPuctError(Exception):
    """Base class for all pnpuct errors."""


# --- code generation ---

class InvalidCode(PnPuctError, ValueError):
    """Code, code descriptor or shift-register spec that is malformed."""


class NonPrimitivePolynomial(PnPuctError):
    """Feedback taps whose shift-register state cycle is shorter than 2^M - 1."""


class InvalidSeed(PnPuctError):
    """Shift-register seed that is empty, malformed, or the trivial fixed point."""


class NotPrime(PnPuctError):
    """Legendre sequence length that is composite or below 3."""


class AlreadyModified(PnPuctError):
    """Bias modification requested on a code that already carries one."""


class NotLs4Compatible(PnPuctError):
    """Zero-replacement binarization requested for a length with n_bit % 4 != 3."""


class UnsupportedLength(PnPuctError):
    """Reference-code length outside the family (Barker is 13, Golay powers of 2)."""


class BiasMismatch(PnPuctError):
    """Code whose stored bias disagrees with the value implied by its kind."""


class GainMismatch(PnPuctError):
    """Code whose stored gain is not the sum of its squared values."""


# --- waveforms ---

class InvalidWaveform(PnPuctError, ValueError):
    """Waveform or pulse of the wrong kind, span, range or duration."""


class TimingMismatch(PnPuctError):
    """Bit duration and frame rate whose product is not a positive integer."""


class NonPositiveAmplitude(PnPuctError):
    """Heat-flux amplitude that is not positive and finite."""


class UnmodifiedCode(PnPuctError):
    """Compression or its filter asked of a code without the perfect-PACF bias."""


# --- thermal simulation ---

class InvalidScene(PnPuctError, ValueError):
    """Pixel model, region, grid or response span that cannot be simulated."""


class SeriesNotConverged(PnPuctError):
    """Image-source series still above its tail tolerance at the term cap."""


# --- DC removal ---

class DegenerateTrace(PnPuctError):
    """Pixel trace that is all zero or contains non-finite samples."""


# --- pulse compression ---

class ShapeMismatch(PnPuctError):
    """Array dimensions inconsistent with the code and timing."""


class EmptyRegion(PnPuctError):
    """Metric region containing no pixels."""


class RegionOverlap(PnPuctError, ValueError):
    """Signal and reference regions of a metric that share pixels."""


# --- stack I/O ---

class InvalidStack(PnPuctError, ValueError):
    """Stack data that is not 3-D or not stored, or an fps not positive."""


class BadMagic(PnPuctError):
    """Stack file that does not start with the TGS1 magic bytes."""


class TruncatedFile(PnPuctError):
    """Stack file shorter than its header promises."""


class TrailingBytes(PnPuctError):
    """Stack file longer than its header promises."""


class BadHeader(PnPuctError):
    """Stack file whose header frame rate is not positive and finite."""


class UnencodableMetadata(PnPuctError):
    """Metadata key or value that a TGS1 file cannot hold."""


class NonFiniteData(PnPuctError):
    """Stack data containing NaN or infinity."""


class StackChanged(PnPuctError):
    """Stack file whose size or modification time changed while in use."""


class OverwritesInput(PnPuctError):
    """Output path that names the stack file being read."""


class IndexOutOfRange(PnPuctError):
    """Frame index or pixel coordinate outside the stack."""


# --- config files ---

class InvalidConfig(PnPuctError, ValueError):
    """Config file that is not valid INI, or a run-config value not known."""


# --- pipeline ---

class PipelineStageError(PnPuctError):
    """Failure inside a pipeline stage, tagged with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
