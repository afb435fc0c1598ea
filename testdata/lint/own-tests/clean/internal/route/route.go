package route

// Live is used by a command.
func Live() int { return 1 }

// Generate is used by another package's test, which is legal.
func Generate() int { return 2 }
