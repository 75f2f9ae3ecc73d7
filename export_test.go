package crn

// MaxVariants is maxVariants, for the package's external tests.
const MaxVariants = maxVariants
